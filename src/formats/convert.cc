#include "formats/convert.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace multigrain {

CsrLayout
csr_from_mask(const MaskMatrix &mask)
{
    CsrLayout out;
    out.rows = mask.rows();
    out.cols = mask.cols();
    out.row_offsets.reserve(static_cast<std::size_t>(out.rows + 1));
    out.row_offsets.push_back(0);
    for (index_t r = 0; r < out.rows; ++r) {
        for (index_t c = 0; c < out.cols; ++c) {
            if (mask.at(r, c) != 0) {
                out.col_indices.push_back(c);
            }
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

MaskMatrix
mask_from_csr(const CsrLayout &layout)
{
    MaskMatrix mask(layout.rows, layout.cols, 0);
    for (index_t r = 0; r < layout.rows; ++r) {
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            mask.at(r, layout.col_indices[static_cast<std::size_t>(i)]) = 1;
        }
    }
    return mask;
}

namespace {

/// `n` (1..64) bits of `bits` starting at bit `pos`, in the low bits.
std::uint64_t
read_bits(const std::uint64_t *bits, index_t pos, index_t n)
{
    const index_t word = pos / 64;
    const index_t shift = pos % 64;
    std::uint64_t v = bits[word] >> shift;
    if (shift + n > 64) {
        v |= bits[word + 1] << (64 - shift);
    }
    return n == 64 ? v : v & ((1ull << n) - 1);
}

/// ORs the low `n` (1..64) bits of `v` into `bits` starting at bit `pos`.
void
or_bits(std::uint64_t *bits, index_t pos, std::uint64_t v, index_t n)
{
    const index_t word = pos / 64;
    const index_t shift = pos % 64;
    bits[word] |= v << shift;
    if (shift + n > 64) {
        bits[word + 1] |= v >> (64 - shift);
    }
}

}  // namespace

BsrBuilder::BsrBuilder(index_t rows, index_t cols, index_t block)
{
    MG_CHECK(block > 0) << "block size must be positive";
    MG_CHECK(rows % block == 0 && cols % block == 0)
        << "matrix " << rows << "x" << cols
        << " is not a multiple of block size " << block;
    out_.rows = rows;
    out_.cols = cols;
    out_.block = block;
    out_.row_offsets.push_back(0);
    strip_.resize(static_cast<std::size_t>(out_.block_cols() *
                                           out_.words_per_block()));
    touched_.resize(static_cast<std::size_t>(out_.block_cols()));
}

void
BsrBuilder::push_row(const std::uint64_t *bits)
{
    const index_t block = out_.block;
    const index_t words = out_.words_per_block();
    const index_t row_in_block = row_++ % block;
    for (index_t bc = 0; bc < out_.block_cols(); ++bc) {
        // The block's slice of the row, moved a word at a time at most.
        for (index_t off = 0; off < block; off += 64) {
            const index_t n = std::min<index_t>(64, block - off);
            const std::uint64_t v = read_bits(bits, bc * block + off, n);
            if (v != 0) {
                or_bits(strip_.data() + bc * words,
                        row_in_block * block + off, v, n);
                touched_[static_cast<std::size_t>(bc)] = 1;
            }
        }
    }
    if (row_in_block + 1 < block) {
        return;
    }
    for (std::size_t bc = 0; bc < touched_.size(); ++bc) {
        if (touched_[bc] != 0) {
            const auto first = strip_.begin() +
                               static_cast<std::ptrdiff_t>(bc) * words;
            out_.col_indices.push_back(static_cast<index_t>(bc));
            out_.valid_bits.insert(out_.valid_bits.end(), first,
                                   first + words);
            std::fill(first, first + words, 0);
            touched_[bc] = 0;
        }
    }
    out_.row_offsets.push_back(static_cast<index_t>(out_.col_indices.size()));
}

BsrLayout
BsrBuilder::finish()
{
    MG_CHECK(row_ == out_.rows)
        << "BsrBuilder finished after " << row_ << " of " << out_.rows
        << " rows";
    return std::move(out_);
}

BsrLayout
bsr_from_csr(const CsrLayout &csr, index_t block)
{
    BsrBuilder builder(csr.rows, csr.cols, block);
    std::vector<std::uint64_t> bits(
        static_cast<std::size_t>(ceil_div<index_t>(csr.cols, 64)));
    for (index_t r = 0; r < csr.rows; ++r) {
        std::fill(bits.begin(), bits.end(), 0);
        for (index_t i = csr.row_offsets[static_cast<std::size_t>(r)];
             i < csr.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            const index_t c = csr.col_indices[static_cast<std::size_t>(i)];
            bits[static_cast<std::size_t>(c / 64)] |= 1ull << (c % 64);
        }
        builder.push_row(bits.data());
    }
    return builder.finish();
}

CsrLayout
csr_from_bsr(const BsrLayout &bsr)
{
    CsrLayout out;
    out.rows = bsr.rows;
    out.cols = bsr.cols;
    out.row_offsets.assign(static_cast<std::size_t>(bsr.rows + 1), 0);
    for (index_t br = 0; br < bsr.block_rows(); ++br) {
        for (index_t r = br * bsr.block; r < (br + 1) * bsr.block; ++r) {
            const index_t in_block_row = r - br * bsr.block;
            for (index_t b = bsr.row_offsets[static_cast<std::size_t>(br)];
                 b < bsr.row_offsets[static_cast<std::size_t>(br + 1)];
                 ++b) {
                const index_t bc =
                    bsr.col_indices[static_cast<std::size_t>(b)];
                for (index_t c = 0; c < bsr.block; ++c) {
                    if (bsr.element_valid(b, in_block_row, c)) {
                        out.col_indices.push_back(bc * bsr.block + c);
                    }
                }
            }
            out.row_offsets[static_cast<std::size_t>(r + 1)] =
                static_cast<index_t>(out.col_indices.size());
        }
    }
    return out;
}

BcooLayout
bcoo_from_bsr(const BsrLayout &bsr)
{
    BcooLayout out;
    out.rows = bsr.rows;
    out.cols = bsr.cols;
    out.block = bsr.block;
    out.blocks.reserve(static_cast<std::size_t>(bsr.nnz_blocks()));
    for (index_t br = 0; br < bsr.block_rows(); ++br) {
        for (index_t b = bsr.row_offsets[static_cast<std::size_t>(br)];
             b < bsr.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            out.blocks.push_back(
                {br, bsr.col_indices[static_cast<std::size_t>(b)]});
        }
    }
    return out;
}

CsrLayout
transpose_layout(const CsrLayout &layout)
{
    CsrLayout out;
    out.rows = layout.cols;
    out.cols = layout.rows;
    out.row_offsets.assign(static_cast<std::size_t>(out.rows + 1), 0);
    // Counting pass: nonzeros per output row (= input column).
    for (const index_t c : layout.col_indices) {
        ++out.row_offsets[static_cast<std::size_t>(c + 1)];
    }
    for (index_t r = 0; r < out.rows; ++r) {
        out.row_offsets[static_cast<std::size_t>(r + 1)] +=
            out.row_offsets[static_cast<std::size_t>(r)];
    }
    // Fill pass: input rows ascend, so each output row's columns (= input
    // rows) come out ascending.
    out.col_indices.resize(layout.col_indices.size());
    std::vector<index_t> cursor(out.row_offsets.begin(),
                                out.row_offsets.end() - 1);
    for (index_t r = 0; r < layout.rows; ++r) {
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            const index_t c = layout.col_indices[static_cast<std::size_t>(i)];
            out.col_indices[static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(c)]++)] = r;
        }
    }
    return out;
}

BsrLayout
transpose_layout(const BsrLayout &layout)
{
    const index_t block = layout.block;
    const index_t words = layout.words_per_block();
    BsrLayout out;
    out.rows = layout.cols;
    out.cols = layout.rows;
    out.block = block;
    out.row_offsets.assign(static_cast<std::size_t>(out.block_rows() + 1),
                           0);
    for (const index_t bc : layout.col_indices) {
        ++out.row_offsets[static_cast<std::size_t>(bc + 1)];
    }
    for (index_t r = 0; r < out.block_rows(); ++r) {
        out.row_offsets[static_cast<std::size_t>(r + 1)] +=
            out.row_offsets[static_cast<std::size_t>(r)];
    }
    out.col_indices.resize(layout.col_indices.size());
    if (!layout.valid_bits.empty()) {
        out.valid_bits.assign(layout.valid_bits.size(), 0);
    }
    std::vector<index_t> cursor(out.row_offsets.begin(),
                                out.row_offsets.end() - 1);
    for (index_t br = 0; br < layout.block_rows(); ++br) {
        for (index_t b = layout.row_offsets[static_cast<std::size_t>(br)];
             b < layout.row_offsets[static_cast<std::size_t>(br + 1)];
             ++b) {
            const index_t bc =
                layout.col_indices[static_cast<std::size_t>(b)];
            const index_t slot = cursor[static_cast<std::size_t>(bc)]++;
            out.col_indices[static_cast<std::size_t>(slot)] = br;
            if (!layout.valid_bits.empty()) {
                // Transpose the bitmap within the block.
                for (index_t r = 0; r < block; ++r) {
                    for (index_t c = 0; c < block; ++c) {
                        if (layout.element_valid(b, r, c)) {
                            const index_t bit = c * block + r;
                            out.valid_bits[static_cast<std::size_t>(
                                slot * words + bit / 64)] |=
                                1ull << (bit % 64);
                        }
                    }
                }
            }
        }
    }
    return out;
}

HalfMatrix
dense_from_csr(const CsrMatrix &m)
{
    const CsrLayout &layout = *m.layout;
    HalfMatrix out(layout.rows, layout.cols, half(0.0f));
    for (index_t r = 0; r < layout.rows; ++r) {
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            out.at(r, layout.col_indices[static_cast<std::size_t>(i)]) =
                m.values[static_cast<std::size_t>(i)];
        }
    }
    return out;
}

HalfMatrix
dense_from_bsr(const BsrMatrix &m)
{
    const BsrLayout &layout = *m.layout;
    HalfMatrix out(layout.rows, layout.cols, half(0.0f));
    for (index_t br = 0; br < layout.block_rows(); ++br) {
        for (index_t b = layout.row_offsets[static_cast<std::size_t>(br)];
             b < layout.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            const index_t bc = layout.col_indices[static_cast<std::size_t>(b)];
            const half *blk = m.block(b);
            for (index_t r = 0; r < layout.block; ++r) {
                for (index_t c = 0; c < layout.block; ++c) {
                    if (layout.element_valid(b, r, c)) {
                        out.at(br * layout.block + r, bc * layout.block + c) =
                            blk[r * layout.block + c];
                    }
                }
            }
        }
    }
    return out;
}

CsrMatrix
gather_csr(const HalfMatrix &dense, std::shared_ptr<const CsrLayout> layout)
{
    MG_CHECK(dense.rows() == layout->rows && dense.cols() == layout->cols)
        << "gather_csr shape mismatch";
    CsrMatrix out(std::move(layout));
    const CsrLayout &l = *out.layout;
    for (index_t r = 0; r < l.rows; ++r) {
        for (index_t i = l.row_offsets[static_cast<std::size_t>(r)];
             i < l.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            out.values[static_cast<std::size_t>(i)] =
                dense.at(r, l.col_indices[static_cast<std::size_t>(i)]);
        }
    }
    return out;
}

BsrMatrix
gather_bsr(const HalfMatrix &dense, std::shared_ptr<const BsrLayout> layout)
{
    MG_CHECK(dense.rows() == layout->rows && dense.cols() == layout->cols)
        << "gather_bsr shape mismatch";
    BsrMatrix out(std::move(layout));
    const BsrLayout &l = *out.layout;
    for (index_t br = 0; br < l.block_rows(); ++br) {
        for (index_t b = l.row_offsets[static_cast<std::size_t>(br)];
             b < l.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            const index_t bc = l.col_indices[static_cast<std::size_t>(b)];
            half *blk = out.block(b);
            for (index_t r = 0; r < l.block; ++r) {
                for (index_t c = 0; c < l.block; ++c) {
                    blk[r * l.block + c] =
                        dense.at(br * l.block + r, bc * l.block + c);
                }
            }
        }
    }
    return out;
}

}  // namespace multigrain
