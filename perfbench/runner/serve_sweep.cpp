// Workload `serve_sweep`: a seeded JSON-lines query stream answered by
// serve::ServerCore::handle_line on the inline stdio path (jobs = 1), one
// closed-loop client, starting cold like a fresh `--serve`. One op is one
// query, timed from outside the server.
//
// The stream mixes systems, ops, mechanisms, 2-16 GPUs, the cells and
// coupled harnesses and noise on/off in three classes:
//  - fresh  (30%): a scenario shape not asked before;
//  - near   (40%): an earlier shape with new size bounds, so the topology
//                  and cells caches answer part of it;
//  - repeat (30%): an earlier query verbatim, so the response cache answers.
// Every fresh query takes one entry of a fixed 144-entry catalog, and the
// near follow-ups and noise flags are spread evenly over entries that cost
// alike, so each seed asks for the same mix of work in another order with
// other sizes and seeds: the cost of a pass stays nearly the same across
// seeds. 144 fresh, 192 near and 144 repeat queries make one pass.
//
// Checks: every response is ok:true; every repeat is byte-identical to the
// first answer (after the id); and a seeded sample re-run through
// run_scenario without caches, outside the timed region, matches byte for
// byte.
#include <algorithm>
#include <map>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gpucomm/harness/stats.hpp"
#include "gpucomm/serve/core.hpp"
#include "gpucomm/serve/json_value.hpp"
#include "gpucomm/serve/query.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/systems/registry.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gpucomm;

enum Class { kFresh = 0, kNear, kRepeat };
constexpr std::size_t kRepeatQueries = 144;
constexpr int kIters = 3;
constexpr int kRerunSample = 8;

/// splitmix64: a small generator whose stream is fixed by its definition,
/// so a seed selects the same stream with any standard library.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

struct Core {
  std::string system, op, mechanism;
  int gpus = 2;
  bool cells = false;
  bool noise = true;
  std::uint64_t seed = 42;
};

struct Query {
  Class cls = kFresh;
  std::string line;
  int original = -1;  // repeats: index of the query repeated
};

std::string render(const Core& c, Bytes min, Bytes max, std::size_t id) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"system\":\"" << c.system << "\",\"op\":\"" << c.op
     << "\",\"mechanism\":\"" << c.mechanism << "\",\"gpus\":" << c.gpus << ",\"min\":" << min
     << ",\"max\":" << max << ",\"iters\":" << kIters << ",\"seed\":" << c.seed
     << ",\"noise\":" << (c.noise ? "true" : "false") << ",\"harness\":\""
     << (c.cells ? "cells" : "coupled") << "\"}";
  return os.str();
}

/// Everything after the `{"id":N` prefix of a response line.
std::string payload(const std::string& response) {
  const std::size_t comma = response.find(',');
  return comma == std::string::npos ? response : response.substr(comma);
}

std::uint64_t count(const serve::JsonValue& obj, const char* key) {
  const serve::JsonValue* v = obj.find(key);
  return v != nullptr && v->as_int() ? static_cast<std::uint64_t>(*v->as_int()) : 0;
}

/// The solver counters of a `stats` control response.
net::SolverStats solver_of(const serve::JsonValue& stats) {
  net::SolverStats s;
  const serve::JsonValue* j = stats.find("solver");
  if (j == nullptr) return s;
  s.reallocations = count(*j, "reallocations");
  s.full_solves = count(*j, "full_solves");
  s.incremental_events = count(*j, "incremental_events");
  s.no_work_events = count(*j, "no_work_events");
  s.component_solves = count(*j, "component_solves");
  s.cache_hits = count(*j, "cache_hits");
  s.cache_misses = count(*j, "cache_misses");
  s.cache_structural_hits = count(*j, "cache_structural_hits");
  s.warm_hits = count(*j, "warm_hits");
  s.warm_misses = count(*j, "warm_misses");
  if (const serve::JsonValue* w = j->find("warm_fallbacks")) {
    s.warm_fallback_order = count(*w, "order");
    s.warm_fallback_tight = count(*w, "tight");
    s.warm_fallback_progress = count(*w, "progress");
  }
  if (const serve::JsonValue* f = j->find("fallbacks")) {
    s.fallback_threshold = count(*f, "threshold");
  }
  return s;
}

net::SolverStats minus(const net::SolverStats& a, const net::SolverStats& b) {
  net::SolverStats d;
  d.reallocations = a.reallocations - b.reallocations;
  d.full_solves = a.full_solves - b.full_solves;
  d.incremental_events = a.incremental_events - b.incremental_events;
  d.no_work_events = a.no_work_events - b.no_work_events;
  d.component_solves = a.component_solves - b.component_solves;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_structural_hits = a.cache_structural_hits - b.cache_structural_hits;
  d.warm_hits = a.warm_hits - b.warm_hits;
  d.warm_misses = a.warm_misses - b.warm_misses;
  d.warm_fallback_order = a.warm_fallback_order - b.warm_fallback_order;
  d.warm_fallback_tight = a.warm_fallback_tight - b.warm_fallback_tight;
  d.warm_fallback_progress = a.warm_fallback_progress - b.warm_fallback_progress;
  d.fallback_threshold = a.fallback_threshold - b.fallback_threshold;
  return d;
}

double median_of(std::vector<double> v) { return v.empty() ? 0 : summarize(std::move(v)).median; }

class ServeSweep final : public Workload {
 public:
  ServeSweep(Ctx& ctx, std::uint64_t seed) : seed_(seed) { generate(ctx); }

  void pass(Ctx& ctx) override {
    serve::ServeOptions opts;
    opts.jobs = 1;
    opts.obs.latency = ctx.tracer != nullptr;  // server histograms: traced run only
    serve::ServerCore core(opts, /*always_pool=*/false);
    std::string last;
    auto writer = std::make_shared<serve::OrderedWriter>(
        [&last](const std::string& framed) { last = framed.substr(0, framed.size() - 1); });
    std::uint64_t seq = 0;
    const auto stats = [&] {
      core.handle_line(writer, seq, "{\"control\":\"stats\",\"id\":" + std::to_string(seq) + "}",
                       false);
      ++seq;
      std::string error;
      const auto v = serve::parse_json(last, error);
      if (!v) throw std::runtime_error("stats response: " + error);
      return *v;
    };
    const net::SolverStats before = solver_of(stats());

    responses_.assign(stream_.size(), std::string());
    for (auto& v : class_ms_) v.clear();
    for (std::size_t i = 0; i < stream_.size() && ctx.more(); ++i) {
      const Query& q = stream_[i];
      const std::uint64_t line_seq = seq++;
      last.clear();
      const bool ok = ctx.op([&] {
        Span s(ctx.tracer, "serve.handle_line");
        core.handle_line(writer, line_seq, q.line, false);
      });
      class_ms_[q.cls].push_back(ctx.ops().back().ms);
      if (!ok) continue;
      responses_[i] = last;
      const std::string want_prefix = "{\"id\":" + std::to_string(i) + ",\"ok\":true,";
      if (last.compare(0, want_prefix.size(), want_prefix) != 0) {
        ctx.fail("query " + std::to_string(i) + ": " + last.substr(0, 200));
      } else if (q.cls == kRepeat && payload(last) != payload(responses_[q.original])) {
        ctx.fail("query " + std::to_string(i) + ": repeat of " + std::to_string(q.original) +
                 " answered differently");
      }
    }

    const serve::JsonValue after = stats();
    ctx.solver["main"].merge(minus(solver_of(after), before));
    cache_.clear();
    if (const serve::JsonValue* caches = after.find("caches")) {
      for (const serve::JsonValue& c : caches->items()) {
        const serve::JsonValue* name = c.find("name");
        if (name != nullptr) {
          cache_[name->as_string()] = {count(c, "hits"), count(c, "misses"),
                                       count(c, "evictions")};
        }
      }
    }
    latency_ = core.latency_stats();
  }

  // Re-run a seeded sample of the answered queries through run_scenario
  // without caches and compare byte for byte.
  void verify(Ctx& ctx) override {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      if (stream_[i].cls != kRepeat && !responses_[i].empty()) candidates.push_back(i);
    }
    SeedRng rng(seed_ ^ 0x5eedull);
    rng.shuffle(candidates);
    candidates.resize(std::min<std::size_t>(candidates.size(), kRerunSample));
    for (const std::size_t i : candidates) {
      std::string error;
      const auto v = serve::parse_json(stream_[i].line, error);
      const auto q = v ? serve::parse_query(*v, error) : std::nullopt;
      const auto out = q ? serve::run_scenario(*q, nullptr, true, error) : nullptr;
      const std::string want =
          out == nullptr ? "error: " + error
                         : "{\"id\":" + std::to_string(i) + ",\"ok\":true,\"manifest\":" +
                               out->manifest_compact + "}";
      if (want != responses_[i]) {
        ctx.fail("query " + std::to_string(i) + ": uncached re-run differs from the response");
      }
    }
  }

  void layers(const Ctx&, Metrics& m) const override {
    const auto ratio = [&](const char* name) {
      const auto it = cache_.find(name);
      if (it == cache_.end()) return 0.0;
      const std::uint64_t lookups = it->second.hits + it->second.misses;
      return lookups == 0 ? 0.0 : static_cast<double>(it->second.hits) / lookups;
    };
    m["serve.responses_hit_ratio"] = ratio("responses");
    m["serve.topology_hit_ratio"] = ratio("topology");
    m["serve.plans_hit_ratio"] = ratio("plans");
    m["serve.cells_hit_ratio"] = ratio("cells");
    double evictions = 0;
    for (const auto& [name, c] : cache_) evictions += static_cast<double>(c.evictions);
    m["serve.evictions"] = evictions;
    m["serve.repeat_us_p50"] = median_of(class_ms_[kRepeat]) * 1e3;
    m["serve.near_ms_p50"] = median_of(class_ms_[kNear]);
    m["serve.fresh_ms_p50"] = median_of(class_ms_[kFresh]);
    const auto& st = latency_.stage;
    m["serve.parse_us_p50"] = st[static_cast<int>(serve::Stage::kParse)].p50_us;
    m["serve.run_ms_p50"] = st[static_cast<int>(serve::Stage::kRun)].p50_us * 1e-3;
    m["serve.run_ms_p90"] = st[static_cast<int>(serve::Stage::kRun)].p90_us * 1e-3;
    m["serve.render_us_p50"] = st[static_cast<int>(serve::Stage::kRender)].p50_us;
  }

 private:
  void generate(Ctx& ctx) {
    // The catalog, one fresh query per entry. What each entry asks (sizes,
    // noise, near follow-ups) is fixed, so every seed asks for the same work;
    // the seed picks the order, the scenario seeds and what is repeated.
    std::vector<Core> catalog;
    std::vector<Bytes> mins;
    std::vector<std::vector<bool>> widen;  // near follow-ups: 16x sweep or first size only
    int op_index = 0;
    for (const char* system : {"alps", "leonardo", "lumi"}) {
      for (const char* op : {"pingpong", "alltoall", "allreduce"}) {
        int mech_index = 0;
        for (const char* mechanism : {"ccl", "mpi"}) {
          for (const bool cells : {false, true}) {
            for (const int gpus : {2, 4, 8, 16}) {
              const std::size_t i = catalog.size();
              const bool noise = (op_index + mech_index) % 2 == 0;
              catalog.push_back({system, op, mechanism, gpus, cells, noise, 0});
              mins.push_back(1_KiB << (2 * (i % 5)));
              const bool widen_first = (i + i / 4) % 2 == 0;
              widen.push_back({widen_first});
              if (i % 3 == 0) widen.back().push_back(!widen_first);
            }
          }
          ++mech_index;
        }
        op_index = (op_index + 1) % 3;
      }
    }
    SeedRng rng(seed_);
    std::vector<std::size_t> fresh_order(catalog.size());
    for (std::size_t i = 0; i < fresh_order.size(); ++i) fresh_order[i] = i;
    rng.shuffle(fresh_order);

    std::vector<std::size_t> asked;       // catalog entries asked so far
    std::vector<std::size_t> answerable;  // indices of fresh/near queries
    std::size_t left[3] = {catalog.size(), 0, kRepeatQueries};
    for (const auto& w : widen) left[kNear] += w.size();
    while (left[kFresh] + left[kNear] + left[kRepeat] > 0) {
      const std::size_t id = stream_.size();
      std::vector<std::size_t> open;  // asked entries with a near query pending
      for (std::size_t a = 0; a < asked.size(); ++a) {
        if (!widen[asked[a]].empty()) open.push_back(asked[a]);
      }
      // Draw a class in proportion to what is left, among those possible.
      const bool possible[3] = {left[kFresh] > 0, left[kNear] > 0 && !open.empty(),
                                left[kRepeat] > 0 && !answerable.empty()};
      std::size_t total = 0;
      for (int c = 0; c < 3; ++c) total += possible[c] ? left[c] : 0;
      if (total == 0) throw std::logic_error("serve stream generator stuck");
      std::size_t pick = rng.below(total);
      int cls = 0;
      while (!possible[cls] || pick >= left[cls]) {
        if (possible[cls]) pick -= left[cls];
        ++cls;
      }
      --left[cls];
      Query q;
      q.cls = static_cast<Class>(cls);
      if (cls == kFresh) {
        const std::size_t entry = fresh_order[catalog.size() - 1 - left[kFresh]];
        Core& c = catalog[entry];
        c.seed = 1 + rng.below(1000000);
        q.line = render(c, mins[entry], 4 * mins[entry], id);
        asked.push_back(entry);
        const SystemConfig cfg = system_by_name(c.system);
        ctx.shapes.insert({c.system, serve::resolved_nodes(cfg, c.gpus, 0), Placement::kPacked,
                           c.noise});
        answerable.push_back(id);
      } else if (cls == kNear) {
        const std::size_t entry = open[rng.below(open.size())];
        std::vector<bool>& pending = widen[entry];
        const Bytes min = mins[entry];
        q.line = render(catalog[entry], min, pending.front() ? 16 * min : min, id);
        pending.erase(pending.begin());
        answerable.push_back(id);
      } else {
        q.original = static_cast<int>(answerable[rng.below(answerable.size())]);
        const std::string& orig = stream_[static_cast<std::size_t>(q.original)].line;
        q.line = "{\"id\":" + std::to_string(id) + orig.substr(orig.find(','));
      }
      stream_.push_back(std::move(q));
    }
  }

  struct CacheCounts {
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  std::uint64_t seed_;
  std::vector<Query> stream_;
  std::vector<std::string> responses_;
  std::vector<double> class_ms_[3];
  std::map<std::string, CacheCounts> cache_;
  serve::LatencyStats latency_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_sweep(Ctx& ctx, std::uint64_t seed) {
  return std::make_unique<ServeSweep>(ctx, seed);
}

}  // namespace perfbench
