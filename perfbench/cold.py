"""Produce one workload's first-frame result in a fresh interpreter.

run.py times this whole process, interpreter start-up and ``import gpk``
included, to get ``setup_s``.  The argument is a JSON object with either
``"cli"``: a list of gpk command lines, or ``"load"``: the depth, global
and refined GPKM paths of one frame.
"""

import json
import sys

spec = json.loads(sys.argv[1])
if "load" in spec:
    from gpk import mapfile

    depth, glob, refined = spec["load"]
    mapfile.load_depth_map(depth)
    mapfile.load_denorm_map(glob)
    mapfile.load_denorm_map(refined)
else:
    from gpk import cli

    for argv in spec["cli"]:
        rc = cli.main(argv)
        if rc != 0:
            sys.exit(rc)
