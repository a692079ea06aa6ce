#!/usr/bin/env bash
# Determinism lint: the simulator's reproducibility story (replayable
# torture seeds, RegCCheck counterexample schedules, byte-identical
# figures) rests on every source of randomness or wall-clock time going
# through the seeded splitmix in lib/sim/rng.ml. Reject any other use in
# library code.
#
# Forbidden anywhere under lib/ except lib/sim/rng.ml:
#   Random.            stdlib PRNG (global, unseeded state)
#   Unix.gettimeofday  wall-clock time
#   Unix.time          wall-clock time
#   Sys.time           processor time
#   Hashtbl.randomize  per-run hash orders (iteration-order leaks)
set -u

root="${1:-lib}"
allow="lib/sim/rng.ml"

pattern='Random\.|Unix\.gettimeofday|Unix\.time|Sys\.time|Hashtbl\.randomize'

hits=$(grep -rn -E "$pattern" "$root" --include='*.ml' --include='*.mli' \
  | grep -v "^$allow:" || true)

if [ -n "$hits" ]; then
  echo "lint_determinism: nondeterminism outside $allow:" >&2
  echo "$hits" >&2
  echo "route randomness through Sim.Rng (seeded, splittable) instead" >&2
  exit 1
fi

# Domain-safety check (run-level parallelism): independent simulation
# runs — figure sweep points, serve load points, torture seeds — are to
# execute at the same time on a pool of OCaml domains, one whole system
# per domain. A top-level `ref` or `Hashtbl.create` in lib/sim or
# lib/core is mutable state that every one of those runs can reach — an
# unsynchronized write there is a data race between runs that no seed
# can replay. Keep state inside per-engine/per-system records, use
# Domain.DLS for per-domain scratch, or Atomic.t for counters shared
# across runs; extend the allowlist only for hooks that are provably
# touched from one domain (set before the run, read serially).
#
# Allowlist (file:binding, matched against the grep hit):
#   lib/sim/resource.ml let observer — RegCCheck observer hook, installed
#   and read only by model-checking runs; it must become a per-engine
#   field before those runs share a domain pool.
mutable_allow='^lib/sim/resource\.ml:[0-9]+:let observer '
mutable_hits=$(grep -rn -E \
  '^let [^=]*= *(ref |Hashtbl\.create|Array\.make|Bytes\.create|Buffer\.create)' \
  lib/sim lib/core --include='*.ml' 2>/dev/null \
  | grep -v -E "$mutable_allow" || true)

if [ -n "$mutable_hits" ]; then
  echo "lint_determinism: new top-level mutable state in lib/sim or lib/core:" >&2
  echo "$mutable_hits" >&2
  echo "independent runs may execute on different domains at once; top-level" >&2
  echo "refs and Hashtbls are state shared between them. Put it in the engine or" >&2
  echo "system record, a Domain.DLS key, or an Atomic — or allowlist it" >&2
  echo "here with a proof it is only touched from one domain." >&2
  exit 1
fi
echo "lint_determinism: clean"
