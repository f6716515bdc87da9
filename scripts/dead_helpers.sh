#!/bin/sh
# The dead-helper scan over the five lower crates (mixedradix, topology,
# embeddings, netsim, gridviz), the sweep runner (explab) and the placement
# service (embd): prints every `pub fn` that no other workspace `.rs` file
# uses and that its own file's non-test code does not call. A line counts as a use only when it calls the name or names it by
# path (`.name(`, `::name`, `name(`); bare words, `fn name` definitions,
# `pub use` re-exports and comments do not count.
#
# Exits 1 when it prints a name outside KEPT, the paper results kept with
# their tests: Corollary 49's comparators, Theorem 47's bounds, the seven
# `paper_examples` figures, the Hamiltonian search and check, and `T_n`'s
# cyclic spread.
#
#   sh scripts/dead_helpers.sh
set -eu
cd "$(git rev-parse --show-toplevel)"
KEPT='c_k epsilon hypercube_in_line_ratio asymptotic_lower_bound interval_capacity
definition30_example definition41_example fig11_expansion_factor fig11_shapes
fig1_quoted_pair fig3_base theorem32_even_first_example
find_hamiltonian_circuit_exhaustive is_hamiltonian_path cyclic_line_spread'
status=0
for f in $(git ls-files 'crates/mixedradix/src/*.rs' 'crates/topology/src/*.rs' \
    'crates/embeddings/src/*.rs' 'crates/netsim/src/*.rs' 'crates/gridviz/src/*.rs' \
    'crates/explab/src/*.rs' 'crates/embd/src/*.rs'); do
  for n in $(grep -oP '\bpub fn \K\w+' "$f" | sort -u); do
    use="(\.|::)$n\b|\b$n\("
    others=$(git ls-files '*.rs' | grep -vxF "$f" | xargs grep -hP -- "$use" |
      grep -vP '^\s*(//|pub(\(crate\))? use )' | grep -cvP "\bfn $n\b" || true)
    own=$(sed '/^#\[cfg(test)\]$/,$d' "$f" | grep -vP '^\s*//' | grep -P -- "$use" |
      grep -cvP "\bfn $n\b" || true)
    if [ "$others" = 0 ] && [ "$own" = 0 ]; then
      echo "$f $n"
      case " $(echo $KEPT) " in *" $n "*) ;; *) status=1 ;; esac
    fi
  done
done
exit $status
