#!/bin/sh
# Golden-digest contract: run every experiment through the CLI at a fixed
# seed, scale and job count with a trace export, and record a sha256 of
# each experiment's stdout (the echoed export path normalised to TRACE)
# and of its taichi-trace-v1 JSON.
#
#   scripts/golden.sh check    compare against GOLDEN.sha256 (exit 1 on drift)
#   scripts/golden.sh update   rewrite GOLDEN.sha256
#
# An intentional output change regenerates the file with `update` and
# says why in CHANGES.md.
set -eu

mode=${1:-check}
golden=GOLDEN.sha256
out=_build/golden
sim=_build/default/bin/taichi_sim.exe

case "$mode" in
  check | update) ;;
  *) echo "usage: $0 check|update" >&2; exit 2 ;;
esac

dune build bin/taichi_sim.exe
rm -rf "$out"
mkdir -p "$out"

for exp in $("$sim" --list | awk 'NR > 1 { print $1 }'); do
  "$sim" "$exp" --seed 42 --scale 0.05 --jobs 2 \
    --trace-json "$out/$exp.json" > "$out/$exp.raw"
  sed "s|$out/$exp.json|TRACE|" "$out/$exp.raw" > "$out/$exp.out"
done

(cd "$out" && for exp in $("../../$sim" --list | awk 'NR > 1 { print $1 }'); do
  sha256sum "$exp.out" "$exp.json"
done) > "$out/GOLDEN.sha256"

if [ "$mode" = update ]; then
  cp "$out/GOLDEN.sha256" "$golden"
  echo "golden: wrote $(wc -l < "$golden") digests to $golden"
elif diff -u "$golden" "$out/GOLDEN.sha256"; then
  echo "golden: all $(wc -l < "$golden") digests match"
else
  echo "golden: output differs from $golden" >&2
  exit 1
fi
