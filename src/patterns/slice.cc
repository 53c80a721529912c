#include "patterns/slice.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "formats/convert.h"

namespace multigrain {

const char *
to_string(SliceMode mode)
{
    switch (mode) {
      case SliceMode::kMultigrain:
        return "multigrain";
      case SliceMode::kCoarseOnly:
        return "coarse-only";
      case SliceMode::kFineOnly:
        return "fine-only";
      case SliceMode::kDense:
        return "dense";
    }
    return "?";
}

SliceMode
slice_mode_by_name(const std::string &name)
{
    if (name == "multigrain") {
        return SliceMode::kMultigrain;
    }
    if (name == "coarse-only" || name == "coarse") {
        return SliceMode::kCoarseOnly;
    }
    if (name == "fine-only" || name == "fine") {
        return SliceMode::kFineOnly;
    }
    if (name == "dense") {
        return SliceMode::kDense;
    }
    throw Error("unknown mode \"" + name +
                "\" (multigrain|coarse-only|fine-only|dense)");
}

void
SlicePlan::validate_partition() const
{
    MG_CHECK(full != nullptr) << "plan has no ground-truth layout";

    if (mode == SliceMode::kDense) {
        // The dense baseline has no sparse parts: it computes everything
        // and masks; the partition property is vacuous.
        MG_CHECK(!has_coarse() && !has_fine() && !has_special())
            << "dense plans must not carry sparse parts";
        return;
    }

    // Reconstruct the union of the three parts row by row and compare it
    // against `full`; simultaneously detect double coverage.
    CsrLayout rebuilt;
    rebuilt.rows = seq_len;
    rebuilt.cols = seq_len;
    rebuilt.row_offsets.push_back(0);

    const CsrLayout coarse_csr =
        has_coarse() ? csr_from_bsr(*coarse) : CsrLayout{};

    std::vector<index_t> cols;
    for (index_t r = 0; r < seq_len; ++r) {
        cols.clear();
        const bool is_global = std::binary_search(global_rows.begin(),
                                                  global_rows.end(), r);
        if (is_global) {
            for (index_t c = 0; c < valid_len; ++c) {
                cols.push_back(c);
            }
        }
        if (has_coarse() && coarse_csr.rows == seq_len) {
            for (index_t i =
                     coarse_csr.row_offsets[static_cast<std::size_t>(r)];
                 i < coarse_csr.row_offsets[static_cast<std::size_t>(r + 1)];
                 ++i) {
                cols.push_back(
                    coarse_csr.col_indices[static_cast<std::size_t>(i)]);
            }
        }
        if (has_fine()) {
            for (index_t i = fine->row_offsets[static_cast<std::size_t>(r)];
                 i < fine->row_offsets[static_cast<std::size_t>(r + 1)];
                 ++i) {
                cols.push_back(
                    fine->col_indices[static_cast<std::size_t>(i)]);
            }
        }
        std::sort(cols.begin(), cols.end());
        for (std::size_t i = 1; i < cols.size(); ++i) {
            MG_CHECK(cols[i] != cols[i - 1])
                << "element (" << r << ", " << cols[i]
                << ") is covered by more than one part";
        }
        rebuilt.col_indices.insert(rebuilt.col_indices.end(), cols.begin(),
                                   cols.end());
        rebuilt.row_offsets.push_back(
            static_cast<index_t>(rebuilt.col_indices.size()));
    }

    MG_CHECK(rebuilt.row_offsets == full->row_offsets &&
             rebuilt.col_indices == full->col_indices)
        << "slice-and-dice parts do not reassemble the full pattern";
}

namespace {

/// Which row bitset an atom's columns go to. kCarved atoms (global atoms
/// routed to dense kernels) mark nothing: their rows are carved out whole.
enum class Grain : std::uint8_t { kCoarse, kFine, kCarved };

/// Sets bits [lo, hi) of a row bitset; empty when lo >= hi.
void
set_range(std::uint64_t *bits, index_t lo, index_t hi)
{
    if (lo >= hi) {
        return;
    }
    const index_t first = lo / 64;
    const index_t last = (hi - 1) / 64;
    const std::uint64_t head = ~0ull << (lo % 64);
    const std::uint64_t tail = ~0ull >> (63 - (hi - 1) % 64);
    if (first == last) {
        bits[first] |= head & tail;
        return;
    }
    bits[first] |= head;
    std::fill(bits + first + 1, bits + last, ~0ull);
    bits[last] |= tail;
}

/// Emits a seq_len x seq_len CSR layout from row bitsets of `words` words
/// each, sized exactly from their popcount before any column is written.
CsrLayout
csr_from_row_bits(const std::vector<std::uint64_t> &rows, index_t seq_len,
                  index_t words)
{
    std::size_t nnz = 0;
    for (const std::uint64_t word : rows) {
        nnz += static_cast<std::size_t>(std::popcount(word));
    }
    CsrLayout out;
    out.rows = seq_len;
    out.cols = seq_len;
    out.row_offsets.reserve(static_cast<std::size_t>(seq_len + 1));
    out.row_offsets.push_back(0);
    out.col_indices.reserve(nnz);
    const std::uint64_t *bits = rows.data();
    for (index_t r = 0; r < seq_len; ++r, bits += words) {
        for (index_t w = 0; w < words; ++w) {
            for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
                out.col_indices.push_back(w * 64 + std::countr_zero(word));
            }
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

/// Marks `atom`'s columns of `row` (< valid_len) in `bits`. Local windows
/// and global rows set whole word ranges; every other kind goes through
/// append_row_columns, so random draws are exactly the atom's own.
void
mark_atom(const AtomicPattern &atom, index_t seq_len, index_t valid_len,
          index_t row, std::uint64_t *bits, std::vector<index_t> &scratch)
{
    switch (atom.kind) {
      case AtomicKind::kLocal:
        set_range(bits, std::max<index_t>(0, row - atom.window),
                  std::min(valid_len, row + atom.window + 1));
        return;
      case AtomicKind::kGlobal:
        if (std::binary_search(atom.tokens.begin(), atom.tokens.end(),
                               row)) {
            set_range(bits, 0, valid_len);
        }
        return;
      default:
        scratch.clear();
        atom.append_row_columns(seq_len, valid_len, row, scratch);
        for (const index_t c : scratch) {
            bits[c / 64] |= 1ull << (c % 64);
        }
        return;
    }
}

/// The layouts one sweep produces. `coarse` is built only when the sweep
/// blockifies, `fine` only when it emits the fine part.
struct SweepResult {
    CsrLayout full;
    CsrLayout fine;
    BsrLayout coarse;
};

/// The single pass behind every layout of a plan. Row by row, coarse
/// atoms mark one column bitset and fine atoms another; the fine bits lose
/// what the coarse bits own (overlap invalidation, §3.3) and causal rows
/// lose every column past the diagonal. `full` gets coarse | fine, `fine`
/// the fine bits, and the coarse bits go straight into a BSR strip when
/// `block` > 0. Rows in `global_rows` (sorted) are carved out: they attend
/// every valid column in `full` and are empty in both parts.
SweepResult
sweep_rows(const CompoundPattern &pattern, const std::vector<Grain> &grains,
           const std::vector<index_t> &global_rows, index_t block,
           bool emit_fine)
{
    MG_CHECK(pattern.seq_len > 0) << "compound pattern needs seq_len > 0";
    const index_t seq_len = pattern.seq_len;
    const index_t valid_len = pattern.effective_valid_len();
    MG_CHECK(valid_len <= seq_len)
        << "valid_len " << valid_len << " exceeds seq_len " << seq_len;
    if (pattern.causal) {
        for (const AtomicPattern &atom : pattern.atoms) {
            MG_CHECK(!atom.is_special())
                << "causal patterns cannot contain global (one-to-all) "
                << "atoms";
        }
    }

    // Columns at or past valid_len are never set, so the full and fine row
    // bitsets span only the words that can hold a valid column; the coarse
    // row spans every column, as the BSR strip reads whole blocks.
    const index_t words = ceil_div<index_t>(seq_len, 64);
    const index_t valid_words =
        ceil_div<index_t>(std::max<index_t>(valid_len, 0), 64);
    const auto kept_size = static_cast<std::size_t>(seq_len * valid_words);
    std::vector<std::uint64_t> full_rows(kept_size);
    std::vector<std::uint64_t> fine_rows(
        emit_fine ? kept_size : static_cast<std::size_t>(valid_words));
    std::vector<std::uint64_t> coarse_row(static_cast<std::size_t>(words));
    std::uint64_t *coarse = coarse_row.data();
    std::optional<BsrBuilder> blocks;
    if (block > 0) {
        blocks.emplace(seq_len, seq_len, block);
    }
    std::vector<index_t> scratch;
    auto global = global_rows.begin();

    for (index_t r = 0; r < seq_len; ++r) {
        std::uint64_t *full = full_rows.data() + r * valid_words;
        // Without a fine output, every row reuses the one spare row.
        std::uint64_t *fine =
            fine_rows.data() + (emit_fine ? r * valid_words : 0);
        std::fill(coarse, coarse + words, 0);
        std::fill(fine, fine + valid_words, 0);
        if (global != global_rows.end() && *global == r) {
            ++global;
            set_range(full, 0, valid_len);
        } else if (r < valid_len) {
            for (std::size_t a = 0; a < pattern.atoms.size(); ++a) {
                if (grains[a] != Grain::kCarved) {
                    mark_atom(pattern.atoms[a], seq_len, valid_len, r,
                              grains[a] == Grain::kCoarse ? coarse : fine,
                              scratch);
                }
            }
            if (pattern.causal) {
                const index_t diag = r / 64;
                const std::uint64_t keep = ~0ull >> (63 - r % 64);
                coarse[diag] &= keep;
                fine[diag] &= keep;
                std::fill(coarse + diag + 1, coarse + words, 0);
                std::fill(fine + diag + 1, fine + valid_words, 0);
            }
            for (index_t w = 0; w < valid_words; ++w) {
                fine[w] &= ~coarse[w];
                full[w] = coarse[w] | fine[w];
            }
        }
        if (blocks) {
            blocks->push_row(coarse);
        }
    }

    SweepResult out;
    out.full = csr_from_row_bits(full_rows, seq_len, valid_words);
    if (emit_fine) {
        out.fine = csr_from_row_bits(fine_rows, seq_len, valid_words);
    }
    if (blocks) {
        out.coarse = blocks->finish();
    }
    return out;
}

}  // namespace

CsrLayout
build_full_layout(const CompoundPattern &pattern)
{
    const std::vector<Grain> grains(pattern.atoms.size(), Grain::kFine);
    return sweep_rows(pattern, grains, {}, 0, false).full;
}

SlicePlan
slice_and_dice(const CompoundPattern &pattern, const SliceOptions &options)
{
    // The §3.1 "offline, once per input shape" cost: measured so mgprof
    // can report it next to the simulated device timeline.
    const ScopedTimer timer("offline.slice_and_dice");
    MG_CHECK(options.block > 0) << "slice block size must be positive";
    MG_CHECK(pattern.seq_len % options.block == 0)
        << "seq_len " << pattern.seq_len
        << " must be a multiple of the block size " << options.block
        << " (pad the sequence)";

    SlicePlan plan;
    plan.seq_len = pattern.seq_len;
    plan.valid_len = pattern.effective_valid_len();
    plan.block = options.block;
    plan.mode = options.mode;

    // Multigrain: global rows form the special part and are carved out of
    // the rest (in the routing ablation global atoms stay fine);
    // high-locality atoms are coarse, the others fine. Coarse-only
    // (Triton-style) blockifies every atom, global rows included;
    // fine-only (Sputnik-style) and dense only need the full layout.
    const bool multigrain = options.mode == SliceMode::kMultigrain;
    std::vector<Grain> grains;
    grains.reserve(pattern.atoms.size());
    for (const auto &atom : pattern.atoms) {
        if (!multigrain) {
            grains.push_back(options.mode == SliceMode::kCoarseOnly
                                 ? Grain::kCoarse
                                 : Grain::kFine);
        } else if (atom.is_special() && options.route_global_to_dense) {
            grains.push_back(Grain::kCarved);
            for (const index_t t : atom.tokens) {
                if (t < plan.valid_len) {
                    plan.global_rows.push_back(t);
                }
            }
        } else {
            grains.push_back(atom.is_coarse() ? Grain::kCoarse
                                              : Grain::kFine);
        }
    }
    std::sort(plan.global_rows.begin(), plan.global_rows.end());
    plan.global_rows.erase(
        std::unique(plan.global_rows.begin(), plan.global_rows.end()),
        plan.global_rows.end());

    const bool blockify =
        multigrain || options.mode == SliceMode::kCoarseOnly;
    SweepResult parts = sweep_rows(pattern, grains, plan.global_rows,
                                   blockify ? options.block : 0, multigrain);
    plan.full = std::make_shared<const CsrLayout>(std::move(parts.full));
    if (options.mode == SliceMode::kFineOnly) {
        plan.fine = plan.full;
    }
    // Coarse-only keeps its layout even when empty; the dense baseline
    // has no sparse parts and masks with `full`.
    if (options.mode == SliceMode::kCoarseOnly ||
        parts.coarse.nnz_blocks() > 0) {
        plan.coarse =
            std::make_shared<const BsrLayout>(std::move(parts.coarse));
    }
    if (parts.fine.nnz() > 0) {
        plan.fine = std::make_shared<const CsrLayout>(std::move(parts.fine));
    }
    return plan;
}

}  // namespace multigrain
