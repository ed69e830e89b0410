#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "core/task.h"
#include "data/st_unit.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "obs/trace.h"

namespace perfbench {

using bigcity::core::BigCityModel;
using bigcity::core::Task;
using bigcity::nn::Tensor;
using bigcity::serve::Request;

bigcity::util::Result<Tensor> RunReference(BigCityModel* model,
                                           const Request& request) {
  switch (request.task) {
    case Task::kNextHop:
      return model->TryNextHopLogits(request.trajectory);
    case Task::kTravelTimeEstimation:
      return model->TryTravelTimeDeltas(request.trajectory);
    case Task::kTrajClassification:
      return model->TryClassifyLogits(request.trajectory);
    case Task::kMostSimilarSearch:
      return model->TryEmbed(request.trajectory);
    case Task::kTrajRecovery:
      return model->TryRecoverLogits(request.trajectory, request.kept);
    case Task::kTrafficOneStep:
      return model->TryPredictTraffic(request.segment, request.start_slice, 1);
    case Task::kTrafficMultiStep:
      return model->TryPredictTraffic(request.segment, request.start_slice,
                                      request.horizon);
    case Task::kTrafficImputation:
      return model->TryImputeTraffic(request.segment, request.start_slice,
                                     request.window, request.masked);
  }
  return bigcity::util::Status::InvalidArgument("unknown task");
}

ServedOutput KeepOutput(const Request& request, const Tensor& output) {
  ServedOutput kept;
  kept.request = request;
  kept.shape = output.shape();
  kept.values.assign(output.data().begin(), output.data().end());
  return kept;
}

namespace {

bool SameBytes(const Tensor& tensor, const std::vector<int64_t>& shape,
               const std::vector<float>& values) {
  return tensor.shape() == shape &&
         static_cast<size_t>(tensor.numel()) == values.size() &&
         std::memcmp(tensor.data().data(), values.data(),
                     values.size() * sizeof(float)) == 0;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return SameBytes(a, b.shape(),
                   std::vector<float>(b.data().begin(), b.data().end()));
}

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::string CheckParity(BigCityModel* reference,
                        const std::vector<ServedOutput>& outputs) {
  bigcity::nn::NoGradGuard no_grad;
  for (const ServedOutput& served : outputs) {
    auto expected = RunReference(reference, served.request);
    const std::string what = bigcity::core::TaskName(served.request.task) +
                             " request " + std::to_string(served.request.id);
    if (!expected.ok()) {
      return what + ": reference call failed: " +
             expected.status().ToString();
    }
    if (!SameBytes(expected.value(), served.shape, served.values)) {
      return what + ": served output differs from the reference model";
    }
  }
  return "";
}

double NextHopLoss(const std::vector<ServedOutput>& outputs,
                   const std::vector<size_t>& indices,
                   const std::vector<int>& targets) {
  double total = 0;
  for (size_t i = 0; i < indices.size(); ++i) {
    const std::vector<float>& logits = outputs[indices[i]].values;
    const float peak = *std::max_element(logits.begin(), logits.end());
    double sum = 0;
    for (float logit : logits) {
      sum += std::exp(static_cast<double>(logit - peak));
    }
    total += std::log(sum) + peak -
             logits[static_cast<size_t>(targets[i])];
  }
  return indices.empty() ? 0 : total / static_cast<double>(indices.size());
}

std::string ProbeLayers(BigCityModel* model,
                        const std::vector<bigcity::data::Trajectory>& prefixes,
                        const std::vector<Request>& requests, Ledger* ledger) {
  using bigcity::core::PromptInput;
  using bigcity::core::TaskTokenKind;
  using bigcity::data::StUnitSequence;
  bigcity::nn::NoGradGuard no_grad;
  auto* tokenizer = model->tokenizer();
  auto* backbone = model->backbone();
  auto* heads = model->heads();
  const std::vector<int> text_ids =
      model->config().use_prompts
          ? model->text_tokenizer().Encode(
                bigcity::core::InstructionFor(Task::kNextHop))
          : std::vector<int>{};

  // The next-hop forward composed from the layers' public calls, exactly
  // as BigCityModel::NextHopLogits composes it.
  struct Composed {
    StUnitSequence sequence;
    std::vector<bool> hide;
    PromptInput prompt;
  };
  std::vector<Composed> composed;
  for (const auto& prefix : prefixes) {
    Composed c;
    c.sequence = StUnitSequence::FromTrajectory(model->ClipTrajectory(prefix));
    c.hide.assign(c.sequence.segments.size(), false);
    c.prompt.text_ids = text_ids;
    c.prompt.task_tokens = {TaskTokenKind::kClas};
    composed.push_back(std::move(c));
  }
  auto prompt_for = [&](Composed& c) {
    c.prompt.st_tokens = tokenizer->TokenizeWithHiddenTimes(c.sequence, c.hide);
    return c.prompt;
  };

  // Bit-identity first: the probe must time the computation the entry
  // point runs, single, batched and KV-decoded.
  std::vector<PromptInput> batch;
  std::vector<Tensor> single;
  for (size_t i = 0; i < composed.size(); ++i) {
    auto entry = model->TryNextHopLogits(prefixes[i]);
    if (!entry.ok()) {
      return "probe next-hop entry: " + entry.status().ToString();
    }
    PromptInput prompt = prompt_for(composed[i]);
    Tensor logits =
        heads->SegmentLogits(backbone->Forward(prompt).task_outputs);
    if (!SameBytes(logits, entry.value())) {
      return "probe: tokenizer->backbone->heads differs from NextHopLogits";
    }
    single.push_back(entry.value());
    if (batch.size() < 8) batch.push_back(prompt);
  }
  const auto batched = backbone->ForwardBatched(batch);
  for (size_t i = 0; i < batched.size(); ++i) {
    if (!SameBytes(heads->SegmentLogits(batched[i].task_outputs), single[i])) {
      return "probe: ForwardBatched differs from Forward";
    }
  }
  // KV decode: prefill the prompt of all but the last point, keep the
  // shared region (NextHopLogitsCached's rule), decode the last point.
  auto decode = [&](size_t i,
                    double* decode_ms) -> bigcity::util::Result<Tensor> {
    const auto& full = prefixes[i];
    bigcity::data::Trajectory shorter = full;
    shorter.points.pop_back();
    Composed head{StUnitSequence::FromTrajectory(shorter), {},
                  composed[i].prompt};
    head.hide.assign(head.sequence.segments.size(), false);
    bigcity::nn::KvCache cache;
    backbone->ForwardCached(prompt_for(head), &cache);
    const int64_t shared = std::min<int64_t>(
        cache.length() - 1, static_cast<int64_t>(text_ids.size()) +
                                composed[i].sequence.length() - 1);
    cache.Truncate(shared);
    PromptInput prompt = prompt_for(composed[i]);
    bigcity::obs::TraceSpan span("bench.probe.backbone.decode", "bench");
    const auto start = Clock::now();
    Tensor z = backbone->ForwardCached(prompt, &cache).task_outputs;
    *decode_ms = MillisSince(start);
    return heads->SegmentLogits(z);
  };
  std::vector<size_t> decodable;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    // Unclipped prefixes of three or more points keep every cached row.
    if (prefixes[i].length() >= 3 &&
        prefixes[i].length() <= model->config().max_trajectory_tokens) {
      decodable.push_back(i);
    }
  }
  if (decodable.empty()) return "probe: no prefix long enough to decode";
  for (size_t i : decodable) {
    double unused = 0;
    auto logits = decode(i, &unused);
    if (!SameBytes(logits.value(), single[i])) {
      return "probe: ForwardCached decode differs from NextHopLogits";
    }
  }

  constexpr int kRepeats = 3;
  // ST tokenizer: a cold slice (GAT + fusion after BeginStep), then warm
  // tokenization of whole sequences.
  std::vector<double> spatial_ms, tokenize_ms;
  for (size_t i = 0; i < composed.size(); ++i) {
    const int slice = model->dataset()->traffic().SliceOf(
        composed[i].sequence.timestamps.front());
    model->BeginStep();
    {
      bigcity::obs::TraceSpan span("bench.probe.tokenizer.spatial_rep",
                                   "bench");
      const auto start = Clock::now();
      tokenizer->SpatialRepresentations(slice);
      spatial_ms.push_back(MillisSince(start));
    }
    tokenizer->TokenizeWithHiddenTimes(composed[i].sequence,
                                       composed[i].hide);
    for (int r = 0; r < kRepeats; ++r) {
      bigcity::obs::TraceSpan span("bench.probe.tokenizer.tokenize", "bench");
      const auto start = Clock::now();
      tokenizer->TokenizeWithHiddenTimes(composed[i].sequence,
                                         composed[i].hide);
      tokenize_ms.push_back(MillisSince(start));
    }
  }
  // Backbone: one prompt, eight prompts, and one KV-decoded point; heads
  // on the placeholder output.
  std::vector<double> forward_ms, batched_ms, decode_ms, heads_ms;
  for (auto& c : composed) prompt_for(c);
  for (int r = 0; r < kRepeats; ++r) {
    for (auto& c : composed) {
      Tensor z;
      {
        bigcity::obs::TraceSpan span("bench.probe.backbone.forward", "bench");
        const auto start = Clock::now();
        z = backbone->Forward(c.prompt).task_outputs;
        forward_ms.push_back(MillisSince(start));
      }
      bigcity::obs::TraceSpan span("bench.probe.heads", "bench");
      const auto start = Clock::now();
      heads->SegmentLogits(z);
      heads_ms.push_back(MillisSince(start));
    }
    {
      bigcity::obs::TraceSpan span("bench.probe.backbone.forward_batched",
                                   "bench");
      const auto start = Clock::now();
      backbone->ForwardBatched(batch);
      batched_ms.push_back(MillisSince(start));
    }
    for (size_t i : decodable) {
      double ms = 0;
      decode(i, &ms);
      decode_ms.push_back(ms);
    }
  }
  // Entry points, warm: one untimed pass, then timed repeats per task.
  std::vector<std::vector<double>> task_ms(bigcity::core::kNumTasks);
  for (const Request& request : requests) {
    if (auto out = RunReference(model, request); !out.ok()) {
      return "probe entry point: " + out.status().ToString();
    }
  }
  for (int r = 0; r < kRepeats; ++r) {
    for (const Request& request : requests) {
      bigcity::obs::TraceSpan span("bench.probe.model", "bench");
      const auto start = Clock::now();
      RunReference(model, request);
      task_ms[static_cast<size_t>(request.task)].push_back(MillisSince(start));
    }
  }
  model->BeginStep();

  ledger->Add("tokenizer.spatial_rep_ms", Median(spatial_ms), "ms");
  ledger->Add("tokenizer.tokenize_ms", Median(tokenize_ms), "ms");
  ledger->Add("backbone.forward_ms", Median(forward_ms), "ms");
  ledger->Add("backbone.forward_batched_ms", Median(batched_ms), "ms");
  ledger->Add("backbone.decode_ms", Median(decode_ms), "ms");
  ledger->Add("heads.ms", Median(heads_ms), "ms");
  static const char* kTaskMetric[bigcity::core::kNumTasks] = {
      "model.next_hop_ms",        "model.classify_ms",
      "model.tte_ms",             "model.embed_ms",
      "model.recover_ms",         "model.traffic_one_step_ms",
      "model.traffic_multi_step_ms", "model.impute_ms"};
  for (int t = 0; t < bigcity::core::kNumTasks; ++t) {
    if (task_ms[static_cast<size_t>(t)].empty()) {
      return std::string("probe: no input for ") + kTaskMetric[t];
    }
    ledger->Add(kTaskMetric[t], Median(task_ms[static_cast<size_t>(t)]), "ms");
  }
  return "";
}

}  // namespace perfbench
