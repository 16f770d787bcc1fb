// replay_tcp: closed loop of replayed CS records over TCP. One generator
// thread pipelines kPerConn requests on each of kConns EdgeClient
// connections to an EdgeTcpServer in front of a solo EdgeServer whose
// kWorkers workers replay the committed MSDNet40 CS/ET profiles through
// ElasticEngine::run (CS-Predictor, hybrid search). No tensor runs.
#include <algorithm>
#include <bit>
#include <deque>
#include <future>
#include <memory>

#include "core/time_distribution.hpp"
#include "harness.hpp"
#include "layer_pass.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/gemm.hpp"
#include "serving/replicate.hpp"
#include "serving/server.hpp"

namespace perfbench {

namespace {

using namespace einet;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConns = 2;
constexpr std::size_t kPerConn = 16;
constexpr const char* kStem =
    "/artifacts/MSDNet40-cifar10-tr800-te300-ep14-s7-pedge_fast";

struct Deployment {
  profiling::ETProfile et;
  profiling::CSProfile cs;
  std::unique_ptr<predictor::CSPredictor> predictor;
  std::unique_ptr<core::UniformExitDistribution> dist;
  std::unique_ptr<serving::EdgeServer> server;
  std::unique_ptr<net::EdgeTcpServer> tcp;  // last: stops first
  SetupTimes times;

  ~Deployment() {
    if (tcp) tcp->stop();
    if (server) server->shutdown();
  }
};

net::TcpClientConfig client_config(std::uint16_t port) {
  net::TcpClientConfig cc;
  cc.port = port;
  return cc;
}

std::unique_ptr<Deployment> set_up(const Options& opt) {
  auto d = std::make_unique<Deployment>();
  StepClock clock;
  const std::string stem = opt.root + kStem;
  d->et = profiling::ETProfile::load(stem + ".et.csv");
  d->cs = profiling::CSProfile::load(stem + ".cs.csv");
  d->times.profile = clock.lap();
  predictor::CSPredictorConfig pc;
  pc.hidden = 128;
  pc.epochs = 6;
  d->predictor = std::make_unique<predictor::CSPredictor>(d->cs.num_exits, pc);
  d->predictor->train(d->cs);
  d->times.predictor = clock.lap();

  d->dist = std::make_unique<core::UniformExitDistribution>(d->et.total_ms());
  const serving::TaskRunner runner =
      [dist = d->dist.get()](runtime::ElasticEngine& engine,
                             const serving::Task& task, util::Rng&) {
        const bool traced = tracing();
        const double start = now_ms();
        auto out = engine.run(*task.record, task.deadline_ms, *dist);
        if (traced)
          record_span({SpanName::kRuntime,
                       std::bit_cast<std::uint64_t>(task.deadline_ms), start,
                       now_ms()});
        return out;
      };
  serving::ServerConfig sc;
  sc.queue_capacity = 256;
  sc.pool.num_workers = kWorkers;
  d->server = std::make_unique<serving::EdgeServer>(
      d->et,
      serving::make_replicated_engine_factory(d->et, d->predictor.get(),
                                              runtime::ElasticConfig{}),
      runner, sc);
  d->tcp = std::make_unique<net::EdgeTcpServer>(*d->server);
  d->tcp->start();
  net::EdgeClient probe{client_config(d->tcp->port())};
  const auto resp = probe.request(d->cs.records[0], d->et.total_ms());
  check(resp.status == serving::SubmitStatus::kQueued, "probe refused");
  d->times.start = clock.lap();
  d->times.total = clock.total();
  return d;
}

}  // namespace

Report run_replay_tcp(const Options& opt) {
  nn::set_gemm_threads(1);
  const std::size_t strata = opt.smoke ? 1 : 4;
  const std::size_t window = opt.smoke ? 16 : 240;

  // Every deployment loads the same profiles, so the first one fixes the
  // sequence for the whole run.
  std::vector<SetupTimes> setup_times;
  auto d = set_up(opt);
  setup_times.push_back(d->times);
  const double total_ms = d->et.total_ms();
  const double first_exit = d->et.conv_ms[0] + d->et.branch_ms[0];
  const std::size_t items = opt.smoke ? 32 : d->cs.records.size();
  const auto seq = make_sequence(items, strata, first_exit, total_ms, opt.seed);

  // One thread drives every connection: request `id` goes out on connection
  // id % kConns once that connection has a free pipeline slot, which it gets
  // by claiming its oldest outstanding response.
  struct Conn {
    std::unique_ptr<net::EdgeClient> client;
    std::deque<std::pair<std::uint64_t, std::pair<Sample*, std::uint64_t>>>
        pending;  // wire id -> (sample, request id)
  };
  std::vector<Conn> conns;
  std::uint64_t transport_errors = 0;
  const auto claim_oldest = [&](Conn& c) {
    const auto [wire, where] = c.pending.front();
    c.pending.pop_front();
    Sample* s = where.first;
    try {
      const auto resp = c.client->wait(wire);
      s->end_ms = now_ms();
      s->answered = resp.status == serving::SubmitStatus::kQueued;
      s->outcome = resp.outcome;
    } catch (const std::exception&) {
      s->end_ms = now_ms();
      ++transport_errors;
    }
    if (where.second != ~std::uint64_t{0})
      record_span({SpanName::kRequest, where.second, s->start_ms, s->end_ms});
  };
  const auto send = [&](std::uint64_t id, const Request& rq, Sample* s,
                        bool traced) {
    Conn& c = conns[id % kConns];
    if (c.pending.size() == kPerConn) claim_oldest(c);
    s->key = std::bit_cast<std::uint64_t>(rq.deadline_ms);
    s->start_ms = now_ms();
    try {
      const auto wire = c.client->send(d->cs.records[rq.item], rq.deadline_ms);
      if (traced) record_span({SpanName::kSend, id, s->start_ms, now_ms()});
      c.pending.push_back({wire, {s, traced ? id : ~std::uint64_t{0}}});
    } catch (const std::exception&) {
      s->end_ms = now_ms();
      ++transport_errors;
    }
  };
  const auto drain = [&] {
    for (auto& c : conns)
      while (!c.pending.empty()) claim_oldest(c);
  };

  const Rounds rounds{opt};
  RunLog log{window, opt.trace};
  std::vector<Sample> pass(seq.size());
  std::uint64_t id = 0;
  serving::MetricsSnapshot snap;
  net::NetMetricsSnapshot nm;
  for (std::size_t r = 0; r < rounds.count(); ++r) {
    if (r > 0) {
      d.reset();
      d = set_up(opt);
      setup_times.push_back(d->times);
      check(d->et.total_ms() == total_ms, "set-ups loaded different profiles");
    }
    conns.resize(kConns);
    for (auto& c : conns)
      c.client =
          std::make_unique<net::EdgeClient>(client_config(d->tcp->port()));
    std::vector<Sample> warm(std::min(window, seq.size()));
    for (std::size_t i = 0; i < warm.size(); ++i)
      send(i, seq[i], &warm[i], false);
    drain();

    log.begin_round();
    for (std::size_t p = 0; rounds.more(r, p, log.measured_ms()); ++p) {
      std::fill(pass.begin(), pass.end(), Sample{});
      const double t0 = now_ms();
      for (std::size_t i = 0; i < seq.size(); ++i, ++id) {
        const bool traced = opt.trace && (id / window) % 2 == 1;
        if (traced != tracing()) set_tracing(traced);
        send(id, seq[i], &pass[i], traced);
      }
      drain();
      log.add_pass(pass, now_ms() - t0);
    }
    set_tracing(false);
    conns.clear();
    d->tcp->stop();
    d->server->shutdown();
    snap = d->server->metrics();
    nm = d->tcp->net_metrics();
    check(snap.admitted == snap.completed, "admitted != completed");
    check(nm.protocol_errors == 0 && nm.dropped_responses == 0 &&
              transport_errors == 0,
          "wire errors on loopback");
    check_server_counts(snap.completed, snap.correct, warm, log);
  }
  const auto& et = d->et;
  const auto& records = d->cs.records;

  // -- verification --------------------------------------------------------
  const auto& first = log.first();
  {
    // Outcomes over TCP must equal in-process ElasticEngine::run.
    runtime::ElasticEngine ref{et, d->predictor.get(), runtime::ElasticConfig{}};
    const std::size_t stride = opt.smoke ? 1 : seq.size() / 256;
    for (std::size_t i = 0; i < seq.size(); i += stride) {
      if (!first[i].answered) continue;
      const auto out =
          ref.run(records[seq[i].item], seq[i].deadline_ms, *d->dist);
      check(same_outcome(out, first[i].outcome),
            "TCP outcome differs from in-process run");
    }
  }

  Report rep;
  rep.fact("workers", kWorkers);
  rep.fact("in_flight", kConns * kPerConn);
  rep.fact("connections", kConns);
  rep.fact("gemm_threads", static_cast<double>(nn::gemm_threads()));
  rep.fact("first_exit_ms", first_exit);
  rep.fact("total_profiled_ms", et.total_ms());
  rep.fact("sequence_requests", static_cast<double>(seq.size()));
  rep.fact("passes", static_cast<double>(log.passes()));
  if (!opt.trace) {
    add_end_to_end(rep, log, setup_times);
    return rep;
  }

  set_counts(rep, log);
  add_setup_layers(rep, setup_times);
  rep.spans = join_spans(collect_spans(), log.all());
  const auto& spans = rep.spans;
  std::vector<double> send_us, runtime_ms, latency;
  for (const auto& s : spans) {
    if (s.name == SpanName::kSend)
      send_us.push_back(1000.0 * (s.end_ms - s.start_ms));
    if (s.name == SpanName::kRuntime) runtime_ms.push_back(s.end_ms - s.start_ms);
  }
  for (const auto& s : log.all())
    if (s.answered) latency.push_back(s.end_ms - s.start_ms);
  const double task_ms = mean(runtime_ms);
  const auto self_ms = request_self_ms(spans);
  rep.fact("send_spans", static_cast<double>(send_us.size()));
  rep.fact("runtime_spans", static_cast<double>(runtime_ms.size()));
  rep.fact("traced_requests", static_cast<double>(self_ms.size()));
  rep.layer("serving.overhead_ms.p50", pct(self_ms, 50));
  rep.layer("serving.queue_ms.p50", snap.stage_queue.p50_ms);
  rep.layer("serving.queue_peak", static_cast<double>(snap.queue_peak_depth));
  add_run_layers(rep, log, task_ms);
  rep.layer("net.send_us.p50", pct(send_us, 50));
  rep.layer("net.overhead_ms.p50", pct(latency, 50) - snap.end_to_end.p50_ms);
  rep.layer("net.respond_ms.p50", snap.stage_respond.p50_ms);
  rep.layer("net.bytes_per_request",
            static_cast<double>(nm.bytes_in + nm.bytes_out) /
                static_cast<double>(std::max<std::uint64_t>(nm.requests, 1)));
  rep.layer("net.errors",
            static_cast<double>(nm.protocol_errors + nm.dropped_responses));

  std::vector<PassRequest> sample_reqs;
  for (std::size_t i = 0; i < std::min<std::size_t>(opt.smoke ? 8 : 32,
                                                      seq.size());
       ++i)
    sample_reqs.push_back({.record = &records[seq[i].item],
                           .label = records[seq[i].item].label,
                           .deadline_ms = seq[i].deadline_ms});
  const auto layers = layer_pass(
      {.predictor = d->predictor.get(), .et = &et, .dist = d->dist.get()},
      sample_reqs);
  add_pass_layers(rep, layers, task_ms);
  return rep;
}

}  // namespace perfbench
