#!/usr/bin/env sh
# Tier-1 verify: configure, build, test, plus a seconds-budget spec-oracle
# fuzz smoke and the paper-claim bench. Run from the repo root.
set -eu
cmake -B build -S .
cmake --build build -j
cd build
ctest --output-on-failure -j
./bench_adversary --fuzz-smoke
./bench_zoo --smoke > /dev/null
./bench_paper > /dev/null
./replay_verify --selftest
