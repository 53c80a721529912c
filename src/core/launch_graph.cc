#include "core/launch_graph.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/timer.h"

namespace multigrain {

void
LaunchGraph::launch(int stream, sim::KernelLaunch launch)
{
    LaunchGraphNode node;
    node.deps = order_.launch(stream);
    node.launch = std::move(launch);
    node.stream = stream;
    ops_.push_back(static_cast<int>(nodes_.size()));
    nodes_.push_back(std::move(node));
}

void
LaunchGraph::join_streams()
{
    order_.join_streams();
    ops_.push_back(kJoin);
}

sim::TbWork
LaunchGraph::total_work() const
{
    sim::TbWork work;
    for (const LaunchGraphNode &node : nodes_) {
        work += node.launch.total_work();
    }
    return work;
}

void
LaunchGraph::validate() const
{
    std::vector<bool> seen(nodes_.size(), false);
    std::size_t next = 0;
    for (const int op : ops_) {
        if (op == kJoin) {
            continue;
        }
        MG_CHECK(op >= 0 && static_cast<std::size_t>(op) < nodes_.size())
            << "op stream references unknown node " << op;
        MG_CHECK(!seen[static_cast<std::size_t>(op)])
            << "op stream duplicates node " << op;
        MG_CHECK(static_cast<std::size_t>(op) == next)
            << "op stream skips node " << next << " (saw " << op << ")";
        seen[static_cast<std::size_t>(op)] = true;
        ++next;
    }
    MG_CHECK(next == nodes_.size())
        << "op stream covers " << next << " of " << nodes_.size()
        << " nodes";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const LaunchGraphNode &node = nodes_[i];
        MG_CHECK(node.stream >= 0 && node.stream < num_streams())
            << "node " << i << " on unknown stream " << node.stream;
        for (const int dep : node.deps) {
            MG_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < i)
                << "node " << i << " depends on non-older node " << dep;
        }
        MG_CHECK(std::is_sorted(node.deps.begin(), node.deps.end()))
            << "node " << i << " has unsorted deps";
        MG_CHECK(std::adjacent_find(node.deps.begin(), node.deps.end()) ==
                 node.deps.end())
            << "node " << i << " has duplicate deps";
    }
}

void
LaunchGraph::drop_dep_for_test(int node, int dep)
{
    MG_CHECK(node >= 0 && static_cast<std::size_t>(node) < nodes_.size())
        << "unknown node " << node;
    std::vector<int> &deps = nodes_[static_cast<std::size_t>(node)].deps;
    const auto it = std::find(deps.begin(), deps.end(), dep);
    MG_CHECK(it != deps.end())
        << "node " << node << " has no dep on " << dep;
    deps.erase(it);
}

namespace {

/// Re-interns every plan-local ('%'-prefixed) buffer under `ns`:
/// "%X" -> "%<ns>.X". Shared buffers pass through untouched.
void
namespace_buffers(std::vector<sim::BufferId> &ids, const std::string &ns)
{
    for (sim::BufferId &id : ids) {
        if (sim::buffer_is_plan_local(id)) {
            id = sim::intern_buffer("%" + ns + "." +
                                    sim::buffer_name(id).substr(1));
        }
    }
}

}  // namespace

void
LaunchGraph::append(const LaunchGraph &other,
                    const std::string &name_prefix,
                    const std::vector<int> *stream_map,
                    const std::string *buffer_ns)
{
    MG_CHECK(&other != this) << "cannot append a LaunchGraph to itself";
    other.validate();
    std::vector<int> map;
    if (stream_map != nullptr) {
        MG_CHECK(static_cast<int>(stream_map->size()) >=
                 other.num_streams())
            << "stream map covers " << stream_map->size() << " of "
            << other.num_streams() << " logical streams";
        map = *stream_map;
    } else {
        map.push_back(0);
        while (static_cast<int>(map.size()) < other.num_streams()) {
            map.push_back(create_stream());
        }
    }
    std::string ns;
    if (buffer_ns != nullptr) {
        ns = *buffer_ns;
    } else {
        ns = "p";
        ns += std::to_string(++buffer_ns_seq_);
    }
    for (const int op : other.ops_) {
        if (op == kJoin) {
            join_streams();
            continue;
        }
        const LaunchGraphNode &node =
            other.nodes_[static_cast<std::size_t>(op)];
        sim::KernelLaunch launch = node.launch;
        if (!name_prefix.empty()) {
            launch.name = name_prefix + launch.name;
        }
        namespace_buffers(launch.reads, ns);
        namespace_buffers(launch.writes, ns);
        namespace_buffers(launch.accums, ns);
        this->launch(map[static_cast<std::size_t>(node.stream)],
                     std::move(launch));
    }
}

void
LaunchGraph::replay_into(sim::GpuSim &sim, std::vector<int> &binding,
                         const std::string &name_prefix) const
{
    const ScopedTimer timer("plan.replay");
    if (binding.empty()) {
        binding.push_back(0);  // Logical stream 0 == the sim's stream 0.
    }
    // Allocate real streams for every logical stream up front, in logical
    // order, so the instantiated stream numbering is independent of which
    // streams the graph's nodes happen to touch first.
    while (static_cast<int>(binding.size()) < num_streams()) {
        binding.push_back(sim.create_stream());
    }
    for (const int op : ops_) {
        if (op == kJoin) {
            sim.join_streams();
            continue;
        }
        const LaunchGraphNode &node =
            nodes_[static_cast<std::size_t>(op)];
        sim::KernelLaunch launch = node.launch;
        if (!name_prefix.empty()) {
            launch.name = name_prefix + launch.name;
        }
        sim.launch(binding[static_cast<std::size_t>(node.stream)],
                   std::move(launch));
    }
}

void
LaunchGraph::replay_into(sim::GpuSim &sim,
                         const std::string &name_prefix) const
{
    std::vector<int> binding;
    replay_into(sim, binding, name_prefix);
}

}  // namespace multigrain
