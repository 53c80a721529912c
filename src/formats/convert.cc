#include "formats/convert.h"

#include <algorithm>
#include <iterator>
#include <map>
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

BsrLayout
bsr_from_csr(const CsrLayout &csr, index_t block)
{
    MG_CHECK(block > 0) << "block size must be positive";
    MG_CHECK(csr.rows % block == 0 && csr.cols % block == 0)
        << "matrix " << csr.rows << "x" << csr.cols
        << " is not a multiple of block size " << block;

    BsrLayout out;
    out.rows = csr.rows;
    out.cols = csr.cols;
    out.block = block;
    const index_t block_rows = out.block_rows();
    const index_t words = out.words_per_block();

    out.row_offsets.assign(static_cast<std::size_t>(block_rows + 1), 0);

    // One block-row strip at a time keeps memory proportional to a strip.
    for (index_t br = 0; br < block_rows; ++br) {
        // Map block-col -> bitmap for this strip, ordered by block-col.
        std::map<index_t, std::vector<std::uint64_t>> strip;
        for (index_t r = br * block; r < (br + 1) * block; ++r) {
            const index_t in_block_row = r - br * block;
            for (index_t i = csr.row_offsets[static_cast<std::size_t>(r)];
                 i < csr.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
                const index_t c =
                    csr.col_indices[static_cast<std::size_t>(i)];
                const index_t bc = c / block;
                auto [it, inserted] = strip.try_emplace(
                    bc, static_cast<std::size_t>(words), 0ull);
                const index_t bit = in_block_row * block + (c - bc * block);
                it->second[static_cast<std::size_t>(bit / 64)] |=
                    1ull << (bit % 64);
            }
        }
        for (auto &[bc, bits] : strip) {
            out.col_indices.push_back(bc);
            out.valid_bits.insert(out.valid_bits.end(), bits.begin(),
                                  bits.end());
        }
        out.row_offsets[static_cast<std::size_t>(br + 1)] =
            static_cast<index_t>(out.col_indices.size());
    }
    return out;
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

namespace {

template <typename MergeFn>
CsrLayout
csr_rowwise_merge(const CsrLayout &a, const CsrLayout &b, MergeFn merge)
{
    MG_CHECK(a.rows == b.rows && a.cols == b.cols)
        << "layout set operations need identical shapes, got " << a.rows
        << "x" << a.cols << " vs " << b.rows << "x" << b.cols;
    CsrLayout out;
    out.rows = a.rows;
    out.cols = a.cols;
    out.row_offsets.reserve(static_cast<std::size_t>(a.rows + 1));
    out.row_offsets.push_back(0);
    for (index_t r = 0; r < a.rows; ++r) {
        const auto *abegin =
            a.col_indices.data() + a.row_offsets[static_cast<std::size_t>(r)];
        const auto *aend = a.col_indices.data() +
                           a.row_offsets[static_cast<std::size_t>(r + 1)];
        const auto *bbegin =
            b.col_indices.data() + b.row_offsets[static_cast<std::size_t>(r)];
        const auto *bend = b.col_indices.data() +
                           b.row_offsets[static_cast<std::size_t>(r + 1)];
        merge(abegin, aend, bbegin, bend, out.col_indices);
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

}  // namespace

CsrLayout
csr_union(const CsrLayout &a, const CsrLayout &b)
{
    return csr_rowwise_merge(
        a, b,
        [](const index_t *ab, const index_t *ae, const index_t *bb,
           const index_t *be, std::vector<index_t> &out) {
            std::set_union(ab, ae, bb, be, std::back_inserter(out));
        });
}

CsrLayout
csr_difference(const CsrLayout &a, const CsrLayout &b)
{
    return csr_rowwise_merge(
        a, b,
        [](const index_t *ab, const index_t *ae, const index_t *bb,
           const index_t *be, std::vector<index_t> &out) {
            std::set_difference(ab, ae, bb, be, std::back_inserter(out));
        });
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
