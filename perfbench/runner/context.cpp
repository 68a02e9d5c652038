#include "context.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/devcopy.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/comm/staging.hpp"

namespace perfbench {

using namespace gpucomm;

namespace {

constexpr std::size_t kKeptFailures = 10;

Row split_csv_line(const std::string& line) {
  // data/*.csv cells never hold commas or quotes (Table::write_csv writes
  // them verbatim), so a plain split is exact.
  Row cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

std::string join(const Row& row) {
  std::string out;
  for (std::size_t i = 0; i < row.size(); ++i) out += (i == 0 ? "" : ",") + row[i];
  return out;
}

}  // namespace

void Ctx::load_reference(const std::string& name) {
  if (refs_.count(name) != 0) return;
  std::ifstream in(data_dir_ + "/" + name);
  if (!in) throw std::runtime_error("missing reference " + data_dir_ + "/" + name);
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty reference " + name);
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(split_csv_line(line));
  }
  refs_.emplace(name, std::move(rows));
}

bool Ctx::op(const std::function<void()>& body) {
  if (meter.due()) {
    Span s(tracer, "speed.slice");
    meter.slice();
  }
  Span s(tracer, "op");
  const std::int64_t t0 = now_ns();
  bool ok = true;
  std::string error;
  try {
    body();
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  ops_.push_back({t0, (now_ns() - t0) * 1e-6, false});
  if (!ok) fail("op threw: " + error);
  return ok;
}

void Ctx::fail(const std::string& message) {
  if (!ops_.empty()) ops_.back().failed = true;
  ++failure_count_;
  if (failures_.size() < kKeptFailures) failures_.push_back(message);
}

void Ctx::check(const std::string& csv, std::size_t key_cols, const Row& row) {
  const auto it = refs_.find(csv);
  if (it == refs_.end()) {
    fail(csv + ": reference not loaded");
    return;
  }
  for (const Row& ref : it->second) {
    if (ref.size() < key_cols || row.size() < key_cols) continue;
    if (!std::equal(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(key_cols),
                    ref.begin())) {
      continue;
    }
    bool same = ref.size() == row.size();
    for (std::size_t c = 0; same && c < row.size(); ++c) {
      same = row[c].empty() || row[c] == ref[c];
    }
    if (!same) fail(csv + ": got '" + join(row) + "', want '" + join(ref) + "'");
    return;
  }
  fail(csv + ": no reference row for '" + join(row) + "'");
}

std::unique_ptr<Cluster> Ctx::build_cluster(const SystemConfig& cfg, const ClusterOptions& copt) {
  shapes.insert({cfg.name, copt.nodes, copt.placement, copt.enable_noise});
  Span s(tracer, "cluster.build");
  return std::make_unique<Cluster>(cfg, copt);
}

std::unique_ptr<Communicator> Ctx::make_comm(Mechanism m, Cluster& cluster, std::vector<int> gpus,
                                             const CommOptions& opt) {
  Span s(tracer, "comm.setup");
  switch (m) {
    case Mechanism::kStaging:
      return std::make_unique<StagingComm>(cluster, std::move(gpus), opt);
    case Mechanism::kDeviceCopy:
      return std::make_unique<DeviceCopyComm>(cluster, std::move(gpus), opt);
    case Mechanism::kCcl:
      return std::make_unique<CclComm>(cluster, std::move(gpus), opt);
    case Mechanism::kMpi:
      return std::make_unique<MpiComm>(cluster, std::move(gpus), opt);
  }
  throw std::invalid_argument("unknown mechanism");
}

Samples Ctx::run_iterations(Cluster& cluster, const RunConfig& rc,
                            const std::function<SimTime()>& iteration) {
  Span s(tracer, "harness.run_iterations");
  return gpucomm::run_iterations(cluster, rc, [&] { return comm_op(iteration); });
}

void Ctx::account(Cluster& cluster, const std::string& part) {
  events += cluster.engine().events_fired();
  solver[part].merge(cluster.network().solver_stats());
}

}  // namespace perfbench
