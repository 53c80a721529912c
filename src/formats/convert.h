#ifndef MULTIGRAIN_FORMATS_CONVERT_H_
#define MULTIGRAIN_FORMATS_CONVERT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "formats/bcoo.h"
#include "formats/bsr.h"
#include "formats/csr.h"
#include "formats/matrix.h"

/// Conversions between the sparse formats and dense matrices. Layout
/// conversions are lossless in the set of *valid* elements: blockifying a
/// CSR layout into BSR records which elements of each stored block are
/// real via the validity bitmap, and converting back recovers exactly the
/// original element set (tested as a round-trip property).
namespace multigrain {

/// Builds a CSR layout from a 0/1 mask; nonzero mask entries are valid.
CsrLayout csr_from_mask(const MaskMatrix &mask);

/// Expands a CSR layout to a 0/1 mask.
MaskMatrix mask_from_csr(const CsrLayout &layout);

/// Assembles a BSR layout from its rows, top to bottom. Each row's bits
/// are ORed into a dense block_cols x words_per_block strip with a touched
/// flag per block column; after every block-th row the touched blocks are
/// appended in ascending block-column order. bsr_from_csr and the
/// slice-and-dice sweep both blockify through it. Requires rows and cols
/// to be multiples of `block`.
class BsrBuilder {
  public:
    BsrBuilder(index_t rows, index_t cols, index_t block);

    /// Adds the next row: a bitset of ceil(cols / 64) words, column c at
    /// bit c % 64 of word c / 64.
    void push_row(const std::uint64_t *bits);
    /// The assembled layout; every row must have been pushed.
    BsrLayout finish();

  private:
    BsrLayout out_;
    index_t row_ = 0;
    std::vector<std::uint64_t> strip_;
    std::vector<unsigned char> touched_;
};

/// Blockifies a CSR layout: every block x block tile containing at least
/// one element becomes a stored block; the bitmap marks the real elements.
/// Requires rows and cols to be multiples of `block`.
BsrLayout bsr_from_csr(const CsrLayout &csr, index_t block);

/// Recovers the element-wise layout of the *valid* elements of a BSR.
CsrLayout csr_from_bsr(const BsrLayout &bsr);

/// Re-expresses BSR block coordinates as BCOO (drops validity bitmaps;
/// BCOO consumers treat stored blocks as fully dense, as Triton does).
BcooLayout bcoo_from_bsr(const BsrLayout &bsr);

/// Transpose of a CSR layout (a CSC view of the same element set,
/// re-expressed as CSR of the transposed matrix). Backward passes run
/// their dV/dK SpMMs over transposed metadata, which — like all metadata
/// (§3.1) — is built offline.
CsrLayout transpose_layout(const CsrLayout &layout);

/// Transpose of a BSR layout: block coordinates swap and each validity
/// bitmap is transposed within its block.
BsrLayout transpose_layout(const BsrLayout &layout);

/// Expands sparse values to a dense matrix; absent positions become 0.
/// For BSR, stored-but-invalid elements also become 0.
HalfMatrix dense_from_csr(const CsrMatrix &m);
HalfMatrix dense_from_bsr(const BsrMatrix &m);

/// Gathers values for every layout position from a dense matrix.
CsrMatrix gather_csr(const HalfMatrix &dense,
                     std::shared_ptr<const CsrLayout> layout);
BsrMatrix gather_bsr(const HalfMatrix &dense,
                     std::shared_ptr<const BsrLayout> layout);

}  // namespace multigrain

#endif  // MULTIGRAIN_FORMATS_CONVERT_H_
