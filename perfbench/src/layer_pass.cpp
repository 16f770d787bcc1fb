#include "layer_pass.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/search.hpp"
#include "harness.hpp"
#include "net/protocol.hpp"
#include "predictor/activation_cache.hpp"

namespace perfbench {

namespace {

using einet::nn::Tensor;

/// Per-request confidence / correctness at every exit plus the block-k
/// input features, from timed stepwise calls.
struct Trajectory {
  einet::profiling::CSRecord record;
  std::vector<Tensor> inputs;  // inputs[k] = features entering block k
};

template <typename Fn>
double timed_ms(Fn&& fn) {
  const double t0 = now_ms();
  fn();
  return now_ms() - t0;
}

}  // namespace

PassResult layer_pass(const PassModel& model,
                      const std::vector<PassRequest>& requests) {
  if (requests.empty()) throw std::invalid_argument{"layer_pass: no requests"};
  const auto& et = *model.et;
  const std::size_t n = et.num_blocks();
  PassResult out;

  // -- nn / nn.quant: per-block medians over the sampled requests ---------
  std::vector<std::vector<double>> conv1(n), qconv1(n), branch1(n), conv8(n);
  std::vector<Trajectory> traj(requests.size());
  if (model.net != nullptr) {
    const auto& net = *model.net;
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const Tensor& img = *requests[r].image;
      Tensor x = img.reshaped({1, img.dim(0), img.dim(1), img.dim(2)});
      Tensor q = x;
      auto& t = traj[r];
      t.record.confidence.resize(n);
      t.record.correct.resize(n);
      t.record.label = requests[r].label;
      for (std::size_t k = 0; k < n; ++k) {
        t.inputs.push_back(x);
        conv1[k].push_back(timed_ms([&] { x = net.run_conv_part(k, x); }));
        if (model.quant != nullptr)
          qconv1[k].push_back(
              timed_ms([&] { q = model.quant->run_conv_part(k, q); }));
        // The served path runs branches on the trunk it serves.
        const Tensor& feat = model.quant != nullptr ? q : x;
        Tensor logits;
        branch1[k].push_back(
            timed_ms([&] { logits = net.run_branch(k, feat); }));
        const auto probs = einet::nn::softmax(logits.data());
        const std::size_t arg = einet::nn::span_argmax(probs);
        t.record.confidence[k] = probs[arg];
        t.record.correct[k] = arg == requests[r].label ? 1 : 0;
      }
    }
    // Batch 8: stacked groups of consecutive sampled requests.
    for (std::size_t g = 0; g + 8 <= requests.size(); g += 8) {
      std::vector<const Tensor*> rows;
      for (std::size_t r = g; r < g + 8; ++r) rows.push_back(requests[r].image);
      Tensor x = einet::nn::stack_rows(rows);
      for (std::size_t k = 0; k < n; ++k)
        conv8[k].push_back(timed_ms([&] { x = net.run_conv_part(k, x); }));
    }
    double macs = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      out.conv_ms_b1 += median(conv1[k]);
      out.conv_ms_b8 += median(conv8[k]);
      out.branch_ms_b1 += median(branch1[k]);
      out.qconv_ms_b1 += median(qconv1[k]);
      macs += static_cast<double>(net.conv_part_flops(k));
    }
    if (out.conv_ms_b8 > 0.0)
      out.conv_gflops_b8 = 2.0 * macs * 8.0 / (out.conv_ms_b8 * 1e6);
    if (out.qconv_ms_b1 > 0.0)
      out.quant_speedup_b1 = out.conv_ms_b1 / out.qconv_ms_b1;
  } else {
    for (std::size_t r = 0; r < requests.size(); ++r)
      traj[r].record = *requests[r].record;
  }

  // Served per-block conv cost the estimate charges.
  std::vector<double> conv_cost(n, 0.0), branch_cost(n, 0.0);
  if (model.net != nullptr)
    for (std::size_t k = 0; k < n; ++k) {
      conv_cost[k] = model.batched       ? median(conv8[k]) / 8.0
                     : model.quant != nullptr ? median(qconv1[k])
                                             : median(conv1[k]);
      branch_cost[k] = median(branch1[k]);
    }

  // -- predictor / core: the exit-control walk of each request ------------
  einet::core::SearchEngine search{einet::core::SearchEngineConfig{}};
  einet::predictor::ActivationCacheSession session{*model.predictor};
  std::vector<double> predict_us, plans, encode_us, est;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto& req = requests[r];
    const auto& rec = traj[r].record;
    double est_ms = 0.0;
    const auto replan = [&](std::size_t fixed,
                            const einet::core::ExitPlan& base) {
      std::vector<float> conf;
      const double p_ms = timed_ms([&] { conf = session.predict(fixed); });
      einet::core::SearchResult res;
      const double s_ms = timed_ms([&] {
        res = search.search({.conv_ms = et.conv_ms,
                             .branch_ms = et.branch_ms,
                             .confidence = conf,
                             .dist = model.dist,
                             .fixed_prefix = fixed,
                             .base = base});
      });
      predict_us.push_back(1000.0 * p_ms);
      plans.push_back(static_cast<double>(res.plans_evaluated));
      if (fixed >= req.split_block) est_ms += p_ms + s_ms;
      return res.plan;
    };
    session.reset();
    einet::core::ExitPlan plan = replan(0, einet::core::ExitPlan{n});
    double t = 0.0;
    float last_conf = 0.0f;
    for (std::size_t k = 0; k < n; ++k) {
      if (model.encode && k == req.split_block && model.net != nullptr) {
        einet::net::ActivationFrame frame;
        frame.deadline_ms = req.deadline_ms;
        frame.label = req.label;
        frame.start_block = static_cast<std::uint32_t>(k);
        frame.state.session_conf = session.logical_input();
        frame.state.session_conf.resize(k);
        frame.state.plan_bits = plan.bits();
        frame.activation = traj[r].inputs[k];
        std::vector<std::uint8_t> bytes;
        encode_us.push_back(1000.0 * timed_ms([&] {
          bytes = einet::net::encode_activation(frame);
        }));
      }
      t += et.conv_ms[k];
      if (t > req.deadline_ms) break;
      if (k >= req.split_block) est_ms += conv_cost[k];
      const bool exec = plan.executes(k);
      if (exec) {
        t += et.branch_ms[k];
        if (t > req.deadline_ms) break;
        if (k >= req.split_block) est_ms += branch_cost[k];
        last_conf = rec.confidence[k];
      }
      session.push(k, last_conf);
      if (exec && k + 1 < n) plan = replan(k + 1, plan);
    }
    est.push_back(est_ms);
  }
  out.predict_us_mean = mean(predict_us);
  out.plans_per_search = mean(plans);
  out.encode_us_mean = mean(encode_us);
  out.est_task_ms = mean(est);
  return out;
}

void add_pass_layers(Report& rep, const PassResult& pass, double task_ms) {
  rep.layer("predictor.predict_us.mean", pass.predict_us_mean);
  rep.layer("core.plans_per_search", pass.plans_per_search);
  rep.layer("nn.conv_ms.b1", pass.conv_ms_b1);
  rep.layer("nn.conv_ms.b8", pass.conv_ms_b8);
  rep.layer("nn.conv_gflops.b8", pass.conv_gflops_b8);
  rep.layer("nn.branch_ms.b1", pass.branch_ms_b1);
  rep.layer("nn.quant.conv_ms.b1", pass.qconv_ms_b1);
  rep.layer("nn.quant.speedup.b1", pass.quant_speedup_b1);
  rep.layer("net.encode_activation_us.mean", pass.encode_us_mean);
  rep.layer("runtime.explained_share",
            task_ms > 0.0 ? pass.est_task_ms / task_ms : 0.0);
}

}  // namespace perfbench
