"""Build every catalog design and export each one as CSV."""

from pathlib import Path

from oamix.catalog import (aggarwal_a_oofa, aggarwal_a_optimal,
                           component_amount_projection_design, czitrom_d_oofa,
                           czitrom_d_optimal)
from oamix.core import validate_design
from oamix.serialize import write_design_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

designs = {
    "czitrom-d": czitrom_d_optimal(),
    "aggarwal-a": aggarwal_a_optimal(),
    "czitrom-d-oofa": czitrom_d_oofa(),
    "aggarwal-a-oofa": aggarwal_a_oofa(),
    "ca-projection-100mg": component_amount_projection_design(100.0),
}

for name, design in designs.items():
    problems = validate_design(design)
    path = OUT / f"{name}.csv"
    path.write_text(write_design_csv(design))
    sizes = [sum(r.block == b for r in design.runs)
             for b in range(1, design.n_blocks + 1)]
    print(f"{name:20} {design.kind:10} n={design.n:3} "
          f"blocks={sizes} violations={len(problems)} -> {path.name}")

# same thing from the shell:
#   oamix catalog --name czitrom-d-oofa -o czitrom-d-oofa.csv
#   oamix catalog --name ca-projection --a-max 100 -o ca-projection.csv
