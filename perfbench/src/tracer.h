#ifndef MULTIGRAIN_PERFBENCH_TRACER_H_
#define MULTIGRAIN_PERFBENCH_TRACER_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

/// In-memory span recorder for the benchmark's traced run.
///
/// A span brackets one public call into a library layer (or one of the
/// benchmark's own phases: set-up, an operation, its checks). Spans nest
/// through a stack, so each knows the span that caused it, and every span
/// carries the id of the operation it belongs to (-1 for set-up, -2 for
/// work after the measured loop). Nothing is written while the run
/// measures; the spans are kept in memory and written out at exit.
///
/// A disabled tracer records nothing and reads no clock, so the untraced
/// run pays only a branch per call site.
namespace mgbench {

inline constexpr int kSetupOp = -1;
inline constexpr int kPostOp = -2;

struct Span {
    const char *name = "";
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  ///< Index of the enclosing span, -1 for a root.
    int op = kSetupOp;
};

class Tracer {
  public:
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }
    void set_op(int op) { op_ = op; }

    int begin(const char *name)
    {
        if (!enabled_) {
            return -1;
        }
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.op = op_;
        span.start_s = now();
        spans_.push_back(span);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void end(int index)
    {
        if (index < 0) {
            return;
        }
        spans_[static_cast<std::size_t>(index)].end_s = now();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (which never overlap, since one thread runs them).
    std::vector<double> self_times() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] += spans_[i].end_s - spans_[i].start_s;
            if (spans_[i].parent >= 0) {
                self[static_cast<std::size_t>(spans_[i].parent)] -=
                    spans_[i].end_s - spans_[i].start_s;
            }
        }
        return self;
    }

    /// Sum of self time per span name.
    std::map<std::string, double> self_by_name() const
    {
        const std::vector<double> self = self_times();
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].name] += self[i];
        }
        return out;
    }

  private:
    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    bool enabled_ = false;
    int op_ = kSetupOp;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// RAII span; `name` must be a string literal (spans keep the pointer).
class Scope {
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.begin(name))
    {
    }
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

}  // namespace mgbench

#endif  // MULTIGRAIN_PERFBENCH_TRACER_H_
