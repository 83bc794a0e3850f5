// Structural (generic) rank of a sparsity pattern.
//
// The structural rank of a matrix is the size of a maximum matching in the
// bipartite graph rows × columns with an edge per stored entry — the rank
// the matrix would have for generic (algebraically independent) nonzero
// values. A structurally rank-deficient MNA pattern is singular for *every*
// assignment of device values: the defect is topological (a node with no
// DC path, a capacitor-only cut set, a sense-only control node), not
// numeric, so it can be reported by name before any factorization is
// attempted. This is the row/column-cover half of a Dulmage–Mendelsohn
// decomposition; the full coarse decomposition is not needed to attribute
// the defect, the unmatched rows/columns are.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/SparseLu.h"  // CsrView

namespace nemtcam::linalg {

struct StructuralRankResult {
  std::size_t rank = 0;
  // Equations no pivot can be assigned to / unknowns no equation
  // determines. Both empty iff the pattern has full structural rank.
  std::vector<std::size_t> unmatched_rows;
  std::vector<std::size_t> unmatched_cols;
};

// Maximum bipartite matching over the pattern of `a` (values are ignored;
// exact zeros still count as structural entries, matching the stamp-slot
// semantics of AssemblyCache). Augmenting-path matching: O(n·nnz), fine at
// MNA sizes.
StructuralRankResult structural_rank(const CsrView& a);

// Same, over a raw CSR pattern (n rows/cols, row_ptr of n+1 offsets).
StructuralRankResult structural_rank(std::size_t n,
                                     const std::size_t* row_ptr,
                                     const std::size_t* cols);

}  // namespace nemtcam::linalg
