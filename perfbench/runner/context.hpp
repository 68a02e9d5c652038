// The state one benchmark process threads through its workload: options,
// the op timer, the reference tables the outputs are checked against, the
// module counters read along the way, and the tracer (traced run only).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/harness/runner.hpp"
#include "gpucomm/net/solver_stats.hpp"
#include "speed.hpp"
#include "trace.hpp"

namespace perfbench {

using Row = std::vector<std::string>;

/// A cluster shape the workload built, replayed by the probes.
struct Shape {
  std::string system;
  int nodes = 1;
  gpucomm::Placement placement = gpucomm::Placement::kPacked;
  bool noise = true;
  auto tie() const { return std::tie(system, nodes, placement, noise); }
  bool operator<(const Shape& o) const { return tie() < o.tie(); }
};

/// Host time and outcome of one op.
struct OpRecord {
  std::int64_t start_ns = 0;
  double ms = 0;
  bool failed = false;
};

class Ctx {
 public:
  Ctx(std::string data_dir, int max_ops) : data_dir_(std::move(data_dir)), max_ops_(max_ops) {}

  // ---- references --------------------------------------------------------
  /// Load `data/<name>` (set-up time); throws when it is missing or empty.
  void load_reference(const std::string& name);

  // ---- ops ---------------------------------------------------------------
  /// False once the --max-ops limit is reached; workloads stop there.
  bool more() const { return max_ops_ <= 0 || static_cast<int>(ops_.size()) < max_ops_; }
  /// Time one op. An exception counts the op as failed and returns false.
  bool op(const std::function<void()>& body);
  /// Compare `row` with the reference row of `csv` whose first `key_cols`
  /// cells match; empty cells of `row` are not compared. A mismatch marks
  /// the latest op failed.
  void check(const std::string& csv, std::size_t key_cols, const Row& row);
  /// Mark the latest op failed with a message (first few are kept).
  void fail(const std::string& message);
  const std::vector<OpRecord>& ops() const { return ops_; }
  void clear_ops() { ops_.clear(); }
  /// The first few failure messages, and how many failures there were.
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t failure_count() const { return failure_count_; }

  // ---- calls into the library, spanned when tracing ------------------------
  std::unique_ptr<gpucomm::Cluster> build_cluster(const gpucomm::SystemConfig& cfg,
                                                  const gpucomm::ClusterOptions& copt);
  std::unique_ptr<gpucomm::Communicator> make_comm(gpucomm::Mechanism m,
                                                   gpucomm::Cluster& cluster,
                                                   std::vector<int> gpus,
                                                   const gpucomm::CommOptions& opt);
  /// Constructs a communicator of type C inside a comm.setup span.
  template <typename C>
  std::unique_ptr<C> make(gpucomm::Cluster& cluster, const std::vector<int>& gpus,
                          const gpucomm::CommOptions& opt) {
    Span s(tracer, "comm.setup");
    return std::make_unique<C>(cluster, gpus, opt);
  }
  /// A Communicator::time_* call inside a comm.op span.
  gpucomm::SimTime comm_op(const std::function<gpucomm::SimTime()>& call) {
    Span s(tracer, "comm.op");
    return call();
  }
  gpucomm::Samples run_iterations(gpucomm::Cluster& cluster, const gpucomm::RunConfig& rc,
                                  const std::function<gpucomm::SimTime()>& iteration);

  /// Fold a cluster's engine events and solver counters into `part` before
  /// the cluster is destroyed.
  void account(gpucomm::Cluster& cluster, const std::string& part = "main");

  // ---- state read by the metrics -----------------------------------------
  Tracer* tracer = nullptr;  // non-null during the traced pass and probes
  SpeedMeter meter;          // host-speed slices, run between ops
  std::set<Shape> shapes;    // every cluster shape built
  std::uint64_t events = 0;  // Engine::events_fired summed over clusters
  std::map<std::string, gpucomm::net::SolverStats> solver;

 private:
  std::string data_dir_;
  int max_ops_;
  std::map<std::string, std::vector<Row>> refs_;  // data/*.csv rows, header dropped
  std::vector<OpRecord> ops_;
  std::vector<std::string> failures_;
  std::size_t failure_count_ = 0;
};

}  // namespace perfbench
