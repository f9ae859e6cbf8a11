#!/usr/bin/env bash
# Campaign benchmark entry point; see benchmark/README.md.
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
#                    [--smoke] [--out FILE]
exec python3 "$(dirname "$0")/run.py" "$@"
