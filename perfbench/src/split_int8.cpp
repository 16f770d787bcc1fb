// split_int8: closed loop of kDevices device threads, each looping its own
// SplitClient over its own int8 LiveElasticEngine (fine-grained VGG-16,
// 48x48, one frozen and quantized SharedModel). Offloads ship fp32-codec
// activation frames over loopback to an EdgeTcpServer whose single worker
// resumes them through split::make_resume_runner on an int8 engine.
//
// Both tiers' simulated block times are scaled by kTimeScale so that
// loopback round trips (which the LinkEstimator learns from wall time) are
// negligible next to them: no split decision may depend on wall time.
#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <thread>

#include "core/time_distribution.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"
#include "layer_pass.hpp"
#include "net/server.hpp"
#include "nn/gemm.hpp"
#include "nn/quant/profile.hpp"
#include "profiling/platform.hpp"
#include "profiling/profiler.hpp"
#include "serving/replicate.hpp"
#include "serving/server.hpp"
#include "split/planner.hpp"
#include "split/resume_runner.hpp"
#include "split/split_client.hpp"

namespace perfbench {

namespace {

using namespace einet;

constexpr std::size_t kDevices = 2;
constexpr double kTimeScale = 200.0;

profiling::Platform scaled(profiling::Platform p) {
  p.flops_per_ms /= kTimeScale;
  p.conv_overhead_ms *= kTimeScale;
  p.branch_overhead_ms *= kTimeScale;
  return p;
}

struct Deployment {
  profiling::ETProfile et;         // canonical clock: the edge tier
  profiling::ETProfile device_et;  // the planner's device-tier prices
  std::vector<float> mean_conf;
  std::unique_ptr<core::UniformExitDistribution> dist;
  serving::SharedModel model;
  /// Engines [0, kDevices) are the devices', the last one the edge's.
  std::vector<std::unique_ptr<runtime::LiveElasticEngine>> engines;
  std::unique_ptr<serving::EdgeServer> server;
  std::unique_ptr<net::EdgeTcpServer> tcp;  // last: stops first
  bool probe_offloaded = false;
  bool probe_correct = false;
  SetupTimes times;

  ~Deployment() {
    if (tcp) tcp->stop();
    if (server) server->shutdown();
  }

  [[nodiscard]] split::SplitClientConfig client_config() const {
    split::SplitClientConfig cc;
    cc.net.port = tcp->port();
    cc.planner.device_et = device_et;
    cc.planner.edge_et = et;
    cc.planner.activation_bytes = split::activation_frame_bytes(*model.net);
    cc.expected_confidence = mean_conf;
    return cc;
  }
};

std::unique_ptr<Deployment> set_up(const Options& opt,
                                   const data::Dataset& profile_set,
                                   const data::Sample& probe) {
  auto d = std::make_unique<Deployment>();
  StepClock clock;
  auto net = make_vgg16_48();
  net.load_weights(fixture_path(opt, "vgg16_48.einw"));
  clock.lap();  // the fixture load counts in the total only
  // The served trunk is int8, so the CS-profile the predictor learns from
  // is the "-q8" re-profile of the quantized path.
  profiling::CSProfile cs;
  {
    const nn::quant::QuantizedBackbone trunk{net};
    d->times.quantize = clock.lap();
    d->et = nn::quant::quantized_execution_time(profiling::profile_execution_time(
        net, scaled(profiling::edge_fast_platform())));
    d->device_et = nn::quant::quantized_execution_time(
        profiling::profile_execution_time(
            net, scaled(profiling::edge_slow_platform())));
    cs = nn::quant::profile_confidence_quant(trunk, profile_set);
    d->times.profile = clock.lap();
  }
  const std::size_t n = net.num_exits();
  predictor::CSPredictorConfig pc;
  pc.hidden = 32;
  pc.epochs = 10;
  auto pred = std::make_unique<predictor::CSPredictor>(n, pc);
  pred->train(cs);
  d->times.predictor = clock.lap();
  d->model = serving::freeze_model(std::move(net), std::move(pred));
  d->times.freeze = clock.lap();
  serving::quantize_model(d->model);
  d->times.quantize += clock.lap();

  d->mean_conf.assign(n, 0.0f);
  for (std::size_t e = 0; e < n; ++e)
    d->mean_conf[e] = static_cast<float>(cs.mean_confidence()[e]);
  d->dist = std::make_unique<core::UniformExitDistribution>(d->et.total_ms());
  d->engines = serving::make_worker_engines(d->model, d->et,
                                            runtime::ElasticConfig{},
                                            kDevices + 1, /*quantized=*/true);
  serving::TaskRunner resume =
      split::make_resume_runner(*d->engines.back(), *d->dist);
  serving::TaskRunner runner = [resume = std::move(resume)](
                                   runtime::ElasticEngine& engine,
                                   const serving::Task& task, util::Rng& rng) {
    const bool traced = tracing();
    const double start = now_ms();
    auto out = resume(engine, task, rng);
    if (traced)
      record_span({SpanName::kRuntime,
                   std::bit_cast<std::uint64_t>(task.deadline_ms), start,
                   now_ms()});
    return out;
  };
  serving::ServerConfig sc;
  sc.queue_capacity = 256;
  sc.pool.num_workers = 1;
  d->server = std::make_unique<serving::EdgeServer>(
      d->et,
      serving::make_replicated_engine_factory(d->et, nullptr, {},
                                              std::vector<float>(n, 0.5f)),
      runner, sc);
  net::TcpServerConfig tsc;
  tsc.accept_activation = true;
  d->tcp = std::make_unique<net::EdgeTcpServer>(*d->server, tsc);
  d->tcp->start();
  {
    split::SplitClient client{*d->engines[0], d->client_config()};
    const auto res =
        client.run(probe.image, probe.label, d->et.total_ms(), *d->dist);
    check(res.path != split::SplitPath::kLocalFallback, "probe failed");
    d->probe_offloaded = res.path == split::SplitPath::kOffloaded;
    d->probe_correct = res.outcome.correct;
  }
  d->times.start = clock.lap();
  d->times.total = clock.total();
  return d;
}

struct SplitInfo {
  split::SplitPath path = split::SplitPath::kLocal;
  std::size_t split_block = 0;
  double offload_ms = 0.0;
};

}  // namespace

Report run_split_int8(const Options& opt) {
  nn::set_gemm_threads(1);
  const std::size_t pool = opt.smoke ? 16 : 128;
  const std::size_t strata = opt.smoke ? 2 : 8;
  const std::size_t window = opt.smoke ? 8 : 128;

  auto spec = data::synth_cifar10_spec(opt.smoke ? 32 : 128, pool, 1011);
  spec.height = spec.width = 48;
  const auto ds = data::make_synthetic(spec);

  // Every deployment profiles the same fixture to the same ET profile, so
  // the first one fixes the sequence for the whole run.
  std::vector<SetupTimes> setup_times;
  auto d = set_up(opt, *ds.train, ds.test->sample(0));
  setup_times.push_back(d->times);
  const double total_ms = d->et.total_ms();
  const double first_exit = d->et.conv_ms[0] + d->et.branch_ms[0];
  const auto seq = make_sequence(pool, strata, first_exit, total_ms, opt.seed);

  std::vector<std::unique_ptr<split::SplitClient>> clients;

  // Runs requests [0, count) of `seq` on the device threads, which take the
  // next index from a shared counter; `first_id` numbers them for windows
  // and spans.
  const auto run_batch = [&](std::size_t count, std::uint64_t first_id,
                             Sample* samples, SplitInfo* info) {
    std::atomic<std::size_t> next{0};
    const auto device = [&](std::size_t t) {
      for (std::size_t i; (i = next.fetch_add(1)) < count;) {
        const std::uint64_t id = first_id + i;
        const bool traced = opt.trace && (id / window) % 2 == 1;
        if (id % window == 0) set_tracing(traced);
        const auto& rq = seq[i];
        const auto& item = ds.test->sample(rq.item);
        Sample& s = samples[i];
        s.key = std::bit_cast<std::uint64_t>(rq.deadline_ms);
        s.start_ms = now_ms();
        const auto res =
            clients[t]->run(item.image, item.label, rq.deadline_ms, *d->dist);
        s.end_ms = now_ms();
        s.answered = res.path != split::SplitPath::kLocalFallback;
        s.outcome = res.outcome;
        info[i] = {res.path, res.split_block, res.offload_wall_ms};
        if (traced)
          record_span({SpanName::kRequest, id, s.start_ms, s.end_ms});
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kDevices; ++t) threads.emplace_back(device, t);
    for (auto& th : threads) th.join();
  };

  // Offloads and fallbacks over a round's warm-up and measured requests,
  // and the correct answers among the offloads: the round's edge server saw
  // exactly these.
  std::size_t offloaded = 0, measured_offloaded = 0, fallbacks = 0;
  std::uint64_t offloaded_correct = 0;
  const auto tally = [&](const std::vector<Sample>& s,
                         const std::vector<SplitInfo>& in) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      fallbacks += in[i].path == split::SplitPath::kLocalFallback ? 1 : 0;
      if (in[i].path != split::SplitPath::kOffloaded) continue;
      ++offloaded;
      offloaded_correct += s[i].outcome.correct ? 1 : 0;
    }
  };

  const Rounds rounds{opt};
  RunLog log{window, opt.trace};
  std::vector<Sample> pass(seq.size());
  std::vector<SplitInfo> pass_info(seq.size());
  std::vector<SplitInfo> info;  // every measured request's, traced runs only
  std::uint64_t client_errors = 0;
  serving::MetricsSnapshot snap;
  net::NetMetricsSnapshot nm;
  for (std::size_t r = 0; r < rounds.count(); ++r) {
    if (r > 0) {
      d.reset();
      d = set_up(opt, *ds.train, ds.test->sample(0));
      setup_times.push_back(d->times);
      check(d->et.total_ms() == total_ms, "set-ups profiled differently");
    }
    for (std::size_t t = 0; t < kDevices; ++t)
      clients.push_back(std::make_unique<split::SplitClient>(
          *d->engines[t], d->client_config()));
    offloaded = 0;
    offloaded_correct = 0;
    {
      std::vector<Sample> warm(std::min(window, seq.size()));
      std::vector<SplitInfo> warm_info(warm.size());
      run_batch(warm.size(), 0, warm.data(), warm_info.data());
      tally(warm, warm_info);
    }

    for (std::size_t p = 0; rounds.more(r, p, log.measured_ms()); ++p) {
      std::fill(pass.begin(), pass.end(), Sample{});
      const double t0 = now_ms();
      run_batch(seq.size(), log.passes() * seq.size(), pass.data(),
                pass_info.data());
      log.add_pass(pass, now_ms() - t0);
      const std::size_t before = offloaded;
      tally(pass, pass_info);
      measured_offloaded += offloaded - before;
      if (opt.trace)
        info.insert(info.end(), pass_info.begin(), pass_info.end());
    }
    set_tracing(false);
    for (const auto& c : clients) {
      const auto cs = c->metrics().snapshot();
      client_errors += cs.transport_errors + cs.protocol_errors;
    }
    clients.clear();
    d->tcp->stop();
    d->server->shutdown();
    snap = d->server->metrics();
    nm = d->tcp->net_metrics();

    check(fallbacks == 0 && client_errors == 0,
          "offload fell back on loopback");
    check(nm.protocol_errors == 0 && nm.dropped_responses == 0,
          "wire errors on loopback");
    check(snap.admitted == snap.completed, "admitted != completed");
    check(snap.completed == offloaded + (d->probe_offloaded ? 1 : 0),
          "server completions disagree with offloaded requests");
    check(snap.correct == offloaded_correct +
                              (d->probe_offloaded && d->probe_correct ? 1 : 0),
          "server accuracy disagrees with the verified outcomes");
  }
  const auto& et = d->et;

  // -- verification --------------------------------------------------------
  {
    // Offloaded outcomes must equal the device's own local run.
    auto& device = *d->engines[0];
    const std::size_t stride = opt.smoke ? 1 : seq.size() / 64;
    for (std::size_t i = 0; i < seq.size(); i += stride) {
      const auto& item = ds.test->sample(seq[i].item);
      const auto ref =
          device.run(item.image, item.label, seq[i].deadline_ms, *d->dist);
      check(same_outcome(ref, log.first()[i].outcome),
            "offloaded outcome differs from the local run");
    }
  }

  Report rep;
  rep.fact("devices", kDevices);
  rep.fact("workers", 1);
  rep.fact("in_flight", kDevices);
  rep.fact("gemm_threads", static_cast<double>(nn::gemm_threads()));
  rep.fact("time_scale", kTimeScale);
  rep.fact("first_exit_ms", first_exit);
  rep.fact("total_profiled_ms", et.total_ms());
  rep.fact("sequence_requests", static_cast<double>(seq.size()));
  rep.fact("passes", static_cast<double>(log.passes()));
  rep.fact("offload_share", static_cast<double>(measured_offloaded) /
                                static_cast<double>(log.attempted()));
  if (!opt.trace) {
    add_end_to_end(rep, log, setup_times);
    return rep;
  }

  set_counts(rep, log);
  add_setup_layers(rep, setup_times);
  const auto& samples = log.all();
  rep.spans = join_spans(collect_spans(), samples);
  const auto& spans = rep.spans;
  std::vector<double> resume_ms, overhead_ms;
  for (const auto& s : spans)
    if (s.name == SpanName::kRuntime) {
      resume_ms.push_back(s.end_ms - s.start_ms);
      overhead_ms.push_back(info[s.request].offload_ms - resume_ms.back());
    }
  const double task_ms = mean(resume_ms);
  const auto frame_bytes = split::activation_frame_bytes(*d->model.net);
  std::vector<double> offload_ms, device_ms, offload_lat;
  double blocks = 0.0, wire = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    blocks += static_cast<double>(info[i].split_block);
    device_ms.push_back(samples[i].end_ms - samples[i].start_ms -
                        info[i].offload_ms);
    if (info[i].path != split::SplitPath::kOffloaded) continue;
    offload_ms.push_back(info[i].offload_ms);
    wire += frame_bytes[info[i].split_block];
  }
  const double total = static_cast<double>(samples.size());
  rep.fact("resume_spans", static_cast<double>(resume_ms.size()));
  rep.fact("offloads", static_cast<double>(offload_ms.size()));
  const double off = static_cast<double>(offload_ms.size());
  rep.layer("serving.overhead_ms.p50", pct(overhead_ms, 50));
  rep.layer("serving.queue_ms.p50", snap.stage_queue.p50_ms);
  rep.layer("serving.queue_peak", static_cast<double>(snap.queue_peak_depth));
  rep.layer("runtime.resume_ms.p50", pct(resume_ms, 50));
  add_run_layers(rep, log, task_ms);
  rep.layer("net.overhead_ms.p50", pct(offload_ms, 50) - snap.end_to_end.p50_ms);
  rep.layer("net.respond_ms.p50", snap.stage_respond.p50_ms);
  rep.layer("net.bytes_per_request",
            static_cast<double>(nm.bytes_in + nm.bytes_out) /
                static_cast<double>(std::max<std::uint64_t>(nm.requests, 1)));
  rep.layer("net.errors", static_cast<double>(nm.protocol_errors +
                                              nm.dropped_responses +
                                              client_errors));
  rep.layer("split.offload_share", off / total);
  rep.layer("split.block_mean", blocks / total);
  rep.layer("split.offload_ms.p50", pct(offload_ms, 50));
  rep.layer("split.device_ms.p50", pct(device_ms, 50));
  rep.layer("split.wire_kib_mean", off > 0.0 ? wire / off / 1024.0 : 0.0);
  rep.layer("split.fallback_share", static_cast<double>(fallbacks) / total);

  std::vector<PassRequest> sample_reqs;
  for (std::size_t i = 0;
       i < seq.size() && sample_reqs.size() < (opt.smoke ? 8u : 32u); ++i) {
    if (info[i].path != split::SplitPath::kOffloaded) continue;
    const auto& item = ds.test->sample(seq[i].item);
    sample_reqs.push_back({.image = &item.image,
                           .label = item.label,
                           .deadline_ms = seq[i].deadline_ms,
                           .split_block = info[i].split_block});
  }
  if (sample_reqs.empty()) return rep;  // nothing offloaded: no edge layers
  const auto layers = layer_pass({.net = d->model.net.get(),
                                  .quant = d->model.quant.get(),
                                  .predictor = d->model.predictor.get(),
                                  .et = &et,
                                  .dist = d->dist.get(),
                                  .encode = true},
                                 sample_reqs);
  add_pass_layers(rep, layers, task_ms);
  return rep;
}

}  // namespace perfbench
