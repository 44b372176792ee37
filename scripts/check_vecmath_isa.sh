#!/usr/bin/env bash
# check_vecmath_isa.sh — check that vecmath's SIMD code stays inside its
# lane namespaces.
#
# common/vecmath.cc compiles every lane in one translation unit: the AVX2
# and AVX-512 lanes sit inside `#pragma GCC target` regions, the scalar
# lane and the dispatch code outside them. A pragma that leaked past its
# region would compile scalar code for a wider ISA, and no test on an
# AVX-512 machine could notice: the code would only fault on an older CPU.
# So this script disassembles the object file and fails when
#   * a function outside the avx2_lane / avx512_lane namespaces touches a
#     %ymm or %zmm register, or
#   * a function in the avx2_lane namespace touches AVX-512 state: a %zmm
#     register, %xmm16-31 / %ymm16-31, or a %k mask register.
# The check needs a build with the SIMD lanes compiled in and no -march
# flag (CI's plain -O2 build); it fails when it finds no AVX2 lane function
# at all, so a renamed namespace cannot make it pass vacuously.
#
# With --no-lanes it checks that vecmath.cc stays the one home for SIMD
# code: every function of the given objects counts as scalar code, so any
# %ymm or %zmm register fails.
#
# Usage:
#   scripts/check_vecmath_isa.sh [object]
#     object  default build/CMakeFiles/svt.dir/src/common/vecmath.cc.o
#   scripts/check_vecmath_isa.sh --no-lanes object...
set -euo pipefail

NO_LANES=0
if [[ "${1:-}" == "--no-lanes" ]]; then
  NO_LANES=1
  shift
  if [[ $# -eq 0 ]]; then
    echo "check_vecmath_isa: --no-lanes needs at least one object" >&2
    exit 2
  fi
  OBJS=("$@")
else
  OBJS=("${1:-build/CMakeFiles/svt.dir/src/common/vecmath.cc.o}")
fi
for obj in "${OBJS[@]}"; do
  if [[ ! -f "$obj" ]]; then
    echo "check_vecmath_isa: no object file at $obj" >&2
    exit 2
  fi
done

objdump -d --no-show-raw-insn -C "${OBJS[@]}" | awk -v no_lanes="$NO_LANES" '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $0
    sub(/^[0-9a-f]+ </, "", fn)
    sub(/>:$/, "", fn)
    # The qualified name: drop the parameter and template argument lists.
    head = fn
    gsub(/\(anonymous namespace\)/, "anon", head)
    sub(/[<(].*/, "", head)
    if (no_lanes) {
      lane = "scalar"
    } else if (head ~ /::avx512_lane::/) {
      lane = "avx512"
    } else if (head ~ /::avx2_lane::/) {
      lane = "avx2"
    } else {
      lane = "scalar"
    }
    count[lane]++
    next
  }
  lane == "scalar" && /%[yz]mm[0-9]/ {
    if (!(fn in bad)) bad[fn] = "scalar code touches a wide register: " $0
  }
  lane == "avx2" && (/%zmm[0-9]/ || /%[xy]mm(1[6-9]|2[0-9]|3[01])([^0-9]|$)/ ||
                     /%k[0-7]([^0-9]|$)/) {
    if (!(fn in bad)) bad[fn] = "AVX2 lane touches AVX-512 state: " $0
  }
  END {
    n = 0
    for (f in bad) {
      print "check_vecmath_isa: " f > "/dev/stderr"
      print "  " bad[f] > "/dev/stderr"
      n++
    }
    printf "check_vecmath_isa: %d scalar, %d AVX2-lane, %d AVX-512-lane " \
           "functions\n", count["scalar"], count["avx2"], count["avx512"]
    if (!no_lanes && count["avx2"] == 0) {
      print "check_vecmath_isa: no AVX2 lane function found" > "/dev/stderr"
      exit 1
    }
    if (count["scalar"] + count["avx2"] + count["avx512"] == 0) {
      print "check_vecmath_isa: no function found" > "/dev/stderr"
      exit 1
    }
    if (n > 0) exit 1
  }
'
