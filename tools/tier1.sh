#!/bin/sh
# Run the tier-1 suite with the phasequant console script on PATH, so that
# the three tests of tests/test_cli.py::TestConsoleScript run too.  The
# script is installed into a temporary prefix, without pip or wheel, by
# setuptools' develop command; the prefix, and src/phasequant.egg-info that
# the command writes unless it was there already, are removed on exit.
#
#   tools/tier1.sh                  # python -m pytest -q
#   tools/tier1.sh -v -k coherent   # the arguments are pytest's
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
prefix=$(mktemp -d)
if [ -e src/phasequant.egg-info ]; then
    trap 'rm -rf "$prefix"' EXIT
else
    trap 'rm -rf "$prefix" src/phasequant.egg-info' EXIT
fi
PYTHONPATH=$prefix python -W ignore -c 'import setuptools; setuptools.setup()' \
    develop --install-dir "$prefix" --script-dir "$prefix/bin" > /dev/null
[ $# -gt 0 ] || set -- -q
PATH=$prefix/bin:$PATH python -m pytest "$@"
