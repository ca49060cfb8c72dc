#!/usr/bin/env python3
"""Write every builtin as JSON plus DOT renderings of the flagship groupoids.

Usage:
    python3 scripts/export_examples.py [outdir]

Produces one semigroup document per corpus member and, for the diamond Munn
semigroup and the Brandt semigroup, DOT files of their universal and tight
germ groupoids (interior isotropy highlighted).
"""

import os
import sys

from germlab.actions import germ_groupoid, tight_action, universal_action
from germlab.builtins import builtin, corpus
from germlab.io import export_dot, save_semigroup


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out"
    os.makedirs(outdir, exist_ok=True)
    written = 0
    for name, S in corpus():
        fname = name.replace(":", "_") + ".json"
        save_semigroup(S, os.path.join(outdir, fname))
        written += 1
    for name in ("diamond_munn", "b2"):
        S = builtin(name)
        for kind, action in (("universal", universal_action(S)),
                             ("tight", tight_action(S))):
            G = germ_groupoid(action).groupoid
            export_dot(G, os.path.join(outdir, f"{name}_{kind}.gv"))
            written += 1
    print(f"wrote {written} files to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
