#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bigcity_model.h"
#include "core/task.h"
#include "data/dataset.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/plan.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace bigcity::serve {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Exact float comparison down to the bit pattern: the batched, KV-cached,
/// and shared-model paths must not perturb the numerics at all.
void ExpectBitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_TRUE(a.is_valid());
  ASSERT_TRUE(b.is_valid());
  ASSERT_EQ(a.shape(), b.shape());
  const auto& da = a.data();
  const auto& db = b.data();
  ASSERT_EQ(da.size(), db.size());
  EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(float)), 0);
}

/// Tiny dataset + model shared by the suite (same footprint as ServeTest).
class BatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = data::ScaleConfig(data::XianLikeConfig(), 0.1);
    config.city.grid_width = 5;
    config.city.grid_height = 5;
    dataset_ = new data::CityDataset(config);
    model_config_.d_model = 32;
    model_config_.num_heads = 2;
    model_config_.num_layers = 2;
    model_config_.spatial_dim = 16;
    model_config_.gat_hidden = 16;
    model_ = new core::BigCityModel(dataset_, model_config_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }
  void TearDown() override { util::FaultInjection::DisarmAll(); }

  static const data::Trajectory& AnyTrajectory(int min_len = 6) {
    for (const auto& t : dataset_->train()) {
      if (t.length() >= min_len) return t;
    }
    return dataset_->train().front();
  }

  static data::Trajectory Prefix(const data::Trajectory& trajectory,
                                 int length) {
    data::Trajectory prefix = trajectory;
    prefix.points.resize(static_cast<size_t>(length));
    return prefix;
  }

  /// A few trajectories of different lengths (ragged batch members).
  static std::vector<data::Trajectory> RaggedTrajectories(int count) {
    const data::Trajectory& full = AnyTrajectory();
    // Capped well under max_trajectory_tokens so the server's clipping is
    // a no-op and direct model calls on the same prefixes are comparable.
    const int cap = std::min(full.length(), 10);
    std::vector<data::Trajectory> out;
    for (int i = 0; i < count; ++i) {
      out.push_back(Prefix(full, 2 + (i % (cap - 1))));
    }
    return out;
  }

  static data::CityDataset* dataset_;
  static core::BigCityConfig model_config_;
  static core::BigCityModel* model_;
};

data::CityDataset* BatchTest::dataset_ = nullptr;
core::BigCityConfig BatchTest::model_config_;
core::BigCityModel* BatchTest::model_ = nullptr;

// --- Batched forward bit-identity (model level) -----------------------------

TEST_F(BatchTest, BatchNextHopBitIdenticalAcrossSizes) {
  for (int size : {1, 2, 3, 5}) {
    SCOPED_TRACE(size);
    std::vector<data::Trajectory> prefixes = RaggedTrajectories(size);
    std::vector<nn::Tensor> batched = model_->BatchNextHopLogits(prefixes);
    ASSERT_EQ(batched.size(), prefixes.size());
    for (int i = 0; i < size; ++i) {
      ExpectBitIdentical(batched[static_cast<size_t>(i)],
                         model_->NextHopLogits(prefixes[static_cast<size_t>(i)]));
    }
  }
}

TEST_F(BatchTest, BatchTravelTimeBitIdentical) {
  std::vector<data::Trajectory> trajectories = RaggedTrajectories(4);
  std::vector<nn::Tensor> batched =
      model_->BatchTravelTimeDeltas(trajectories);
  ASSERT_EQ(batched.size(), trajectories.size());
  for (size_t i = 0; i < trajectories.size(); ++i) {
    ExpectBitIdentical(batched[i], model_->TravelTimeDeltas(trajectories[i]));
  }
}

TEST_F(BatchTest, BatchPredictTrafficBitIdentical) {
  std::vector<core::BigCityModel::TrafficQuery> queries = {
      {0, 0, 1}, {1, 0, 3}, {2, 1, 2}, {0, 2, 1}};
  util::Result<std::vector<nn::Tensor>> batched =
      model_->TryBatchPredictTraffic(queries);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(batched.value()[i],
                       model_->PredictTraffic(queries[i].segment,
                                              queries[i].start_slice,
                                              queries[i].horizon));
  }
}

TEST_F(BatchTest, TryBatchRejectsBatchWithInvalidMember) {
  std::vector<data::Trajectory> prefixes = RaggedTrajectories(2);
  prefixes.push_back(data::Trajectory{});  // Empty: fails screening.
  util::Result<std::vector<nn::Tensor>> result =
      model_->TryBatchNextHopLogits(prefixes);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

// --- KV-cached incremental decoding -----------------------------------------

TEST_F(BatchTest, KvCachedNextHopBitIdenticalAcrossExtensions) {
  nn::NoGradGuard no_grad;  // Serving mode, like the workers.
  const data::Trajectory& full = AnyTrajectory(6);
  const int max_len = std::min(full.length(), 8);
  nn::KvCache cache;
  const std::vector<nn::KvCache*> caches = {&cache};
  std::vector<int64_t> lengths;
  for (int len = 2; len <= max_len; ++len) {
    SCOPED_TRACE(len);
    data::Trajectory prefix = Prefix(full, len);
    nn::Tensor cached = model_->BatchNextHopLogits({prefix}, &caches)[0];
    ExpectBitIdentical(cached, model_->NextHopLogits(prefix));
    lengths.push_back(cache.length());
  }
  // Each extension step adds exactly one reusable row to the cache: the
  // shared prefix grew by one ST token (the [CLAS] row is re-decoded).
  for (size_t i = 1; i < lengths.size(); ++i) {
    EXPECT_EQ(lengths[i], lengths[i - 1] + 1);
  }
}

TEST_F(BatchTest, KvCacheColdStartMatchesFullForward) {
  nn::NoGradGuard no_grad;
  const data::Trajectory prefix = Prefix(AnyTrajectory(4), 3);
  nn::KvCache cache;
  const std::vector<nn::KvCache*> caches = {&cache};
  nn::Tensor first = model_->BatchNextHopLogits({prefix}, &caches)[0];
  EXPECT_GT(cache.length(), 0);
  ExpectBitIdentical(first, model_->NextHopLogits(prefix));
  // Re-serving the same prefix truncates and re-decodes the final rows —
  // still bit-identical.
  nn::Tensor again = model_->BatchNextHopLogits({prefix}, &caches)[0];
  ExpectBitIdentical(again, first);
}

TEST_F(BatchTest, BatchedCachedDecodeMixedBatchBitIdentical) {
  nn::NoGradGuard no_grad;
  const data::Trajectory& full = AnyTrajectory(8);
  const int max_len = std::min(full.length(), 8);
  ASSERT_GE(max_len, 8);
  // Warm two caches at different served lengths through a batched prefill.
  std::vector<data::Trajectory> warm = {Prefix(full, 3), Prefix(full, 5)};
  nn::KvCache cache_a, cache_b;
  std::vector<nn::KvCache*> warm_caches = {&cache_a, &cache_b};
  std::vector<nn::Tensor> prefill =
      model_->BatchNextHopLogits(warm, &warm_caches);
  for (size_t i = 0; i < warm.size(); ++i) {
    ExpectBitIdentical(prefill[i], model_->NextHopLogits(warm[i]));
  }
  const int64_t warm_a = cache_a.length();
  const int64_t warm_b = cache_b.length();
  EXPECT_GT(warm_a, 0);
  EXPECT_GT(warm_b, 0);
  // Mixed batch: a one-step extension, a multi-step (5 -> 8) extension,
  // and a fresh member prefilling a third cache — all in one forward.
  std::vector<data::Trajectory> next = {Prefix(full, 4), Prefix(full, 8),
                                        Prefix(full, 2)};
  nn::KvCache cache_c;
  std::vector<nn::KvCache*> caches = {&cache_a, &cache_b, &cache_c};
  std::vector<nn::Tensor> batched = model_->BatchNextHopLogits(next, &caches);
  ASSERT_EQ(batched.size(), next.size());
  for (size_t i = 0; i < next.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectBitIdentical(batched[i], model_->NextHopLogits(next[i]));
  }
  // Extended caches grew to cover their new trajectories; the fresh member
  // captured a full prefill reusable by a later extension.
  EXPECT_GT(cache_a.length(), warm_a);
  EXPECT_GT(cache_b.length(), warm_b);
  EXPECT_GT(cache_c.length(), 0);
  const std::vector<nn::KvCache*> only_c = {&cache_c};
  nn::Tensor extended =
      model_->BatchNextHopLogits({Prefix(full, 3)}, &only_c)[0];
  ExpectBitIdentical(extended, model_->NextHopLogits(Prefix(full, 3)));
}

// --- Instruction K/V (DESIGN.md §4.3) ----------------------------------------
//
// An autograd-free forward starts from the instruction rows' cached K/V; a
// forward with autograd on runs the whole prompt. The two must agree bit
// for bit on every entry point, and the cached K/V must follow every change
// to the weights.

using NamedOutputs = std::vector<std::pair<std::string, nn::Tensor>>;

/// Every inference entry point on fixed inputs, in a fixed order: the Try*
/// call of each of the eight tasks, batched next-hop with no caches, null
/// entries, empty caches and caches populated by shorter prefixes, batched
/// TTE and traffic, and a one-element KV-cached decode from empty and
/// populated.
NamedOutputs RunEveryEntryPoint(core::BigCityModel* model,
                                const data::Trajectory& full) {
  NamedOutputs out;
  auto add = [&](const std::string& name, util::Result<nn::Tensor> result) {
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    out.emplace_back(name, result.ok() ? result.value() : nn::Tensor());
  };
  auto add_all = [&](const std::string& name,
                     util::Result<std::vector<nn::Tensor>> result) {
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    if (!result.ok()) return;
    for (size_t i = 0; i < result.value().size(); ++i) {
      out.emplace_back(name + " #" + std::to_string(i), result.value()[i]);
    }
  };
  auto prefix = [&](int length) {
    data::Trajectory p = full;
    p.points.resize(static_cast<size_t>(length));
    return p;
  };
  const data::Trajectory trajectory = prefix(8);
  add("next-hop", model->TryNextHopLogits(trajectory));
  add("classify", model->TryClassifyLogits(trajectory));
  add("tte", model->TryTravelTimeDeltas(trajectory));
  add("embed", model->TryEmbed(trajectory));
  add("recover", model->TryRecoverLogits(trajectory, {0, 2, 5, 7}));
  add("traffic one-step", model->TryPredictTraffic(1, 3, 1));
  add("traffic multi-step", model->TryPredictTraffic(2, 5, 6));
  add("impute", model->TryImputeTraffic(0, 4, 8, {1, 4, 6}));

  const std::vector<data::Trajectory> prefixes = {prefix(2), prefix(5),
                                                  prefix(3), prefix(7)};
  add_all("batched next-hop, no caches",
          model->TryBatchNextHopLogits(prefixes));
  std::vector<nn::KvCache*> null_entries(prefixes.size(), nullptr);
  add_all("batched next-hop, null caches",
          model->TryBatchNextHopLogits(prefixes, &null_entries));
  std::vector<nn::KvCache> sessions(prefixes.size());
  std::vector<nn::KvCache*> caches;
  for (nn::KvCache& session : sessions) caches.push_back(&session);
  add_all("batched next-hop, empty caches",
          model->TryBatchNextHopLogits(prefixes, &caches));
  // Each session now holds its prefix: extend every member, one by
  // several points, and add a member with a fresh session.
  std::vector<data::Trajectory> extended = {prefix(3), prefix(8), prefix(4),
                                            prefix(8), prefix(6)};
  nn::KvCache fresh;
  caches.push_back(&fresh);
  add_all("batched next-hop, populated caches",
          model->TryBatchNextHopLogits(extended, &caches));
  add_all("batched tte", model->TryBatchTravelTimeDeltas(prefixes));
  add_all("batched traffic",
          model->TryBatchPredictTraffic({{0, 0, 1}, {1, 2, 6}, {2, 1, 3}}));
  nn::KvCache session;
  const std::vector<nn::KvCache*> one_session = {&session};
  add_all("cached next-hop, empty cache",
          model->TryBatchNextHopLogits({prefix(4)}, &one_session));
  add_all("cached next-hop, populated cache",
          model->TryBatchNextHopLogits({prefix(6)}, &one_session));
  return out;
}

void ExpectSameOutputs(const NamedOutputs& actual,
                       const NamedOutputs& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(expected[i].first);
    ASSERT_EQ(actual[i].first, expected[i].first);
    ExpectBitIdentical(actual[i].second, expected[i].second);
  }
}

TEST_F(BatchTest, AutogradFreeForwardsMatchFullPromptForwards) {
  const nn::kernels::GemmBackend saved_backend = nn::kernels::backend();
  const int saved_threads = nn::kernels::NumThreads();
  struct Setting {
    const char* name;
    nn::kernels::GemmBackend backend;
    int threads;
  };
  for (const Setting& setting :
       {Setting{"blocked, 1 thread", nn::kernels::GemmBackend::kBlocked, 1},
        Setting{"blocked, 4 threads", nn::kernels::GemmBackend::kBlocked, 4},
        Setting{"naive", nn::kernels::GemmBackend::kNaive, 1}}) {
    SCOPED_TRACE(setting.name);
    nn::kernels::SetBackend(setting.backend);
    nn::kernels::SetNumThreads(setting.threads);
    // A fresh model per setting, so every setting makes its own fills.
    core::BigCityModel model(dataset_, model_config_);
    const NamedOutputs full_prompt =
        RunEveryEntryPoint(&model, AnyTrajectory(8));
    const uint64_t fills = CounterValue("core.instruction_kv.fill");
    const uint64_t hits = CounterValue("core.instruction_kv.hit");
    NamedOutputs seeded;
    {
      nn::NoGradGuard no_grad;
      seeded = RunEveryEntryPoint(&model, AnyTrajectory(8));
    }
    ExpectSameOutputs(seeded, full_prompt);
#if BIGCITY_OBS
    // One fill per task instruction; every other seed reads an entry.
    EXPECT_EQ(CounterValue("core.instruction_kv.fill"),
              fills + static_cast<uint64_t>(core::kNumTasks));
    EXPECT_GT(CounterValue("core.instruction_kv.hit"), hits);
#else
    (void)fills;
    (void)hits;
#endif
  }
  nn::kernels::SetBackend(saved_backend);
  nn::kernels::SetNumThreads(saved_threads);
}

/// The named parameter of `module`, which must exist.
nn::Tensor ParameterNamed(const nn::Module& module, const std::string& name) {
  for (const auto& [parameter_name, parameter] : module.NamedParameters()) {
    if (parameter_name == name) return parameter;
  }
  ADD_FAILURE() << "no parameter " << name;
  return nn::Tensor();
}

TEST_F(BatchTest, InstructionKvFollowsEveryWeightChange) {
  core::BigCityConfig config = model_config_;
  config.lora_rate = 0.5;  // LoRA on block 0 only.
  core::BigCityModel model(dataset_, config);
  model.tokenizer()->SetTrainable(false);  // Keeps its library graph-free.
  util::Rng lora_rng(3);
  core::Backbone* backbone = model.backbone();
  backbone->EnableLora(&lora_rng);
  backbone->FreezeBase();
  const data::Trajectory trajectory = Prefix(AnyTrajectory(6), 6);
  auto autograd_free = [&] {
    nn::NoGradGuard no_grad;
    return model.TryNextHopLogits(trajectory).value();
  };
  auto full_prompt = [&] { return model.NextHopLogits(trajectory); };
  nn::Tensor previous = autograd_free();  // The fill.
  ExpectBitIdentical(previous, full_prompt());
  auto expect_followed = [&](const char* change) {
    SCOPED_TRACE(change);
    const nn::Tensor now = autograd_free();
    ExpectBitIdentical(now, full_prompt());
    // The change moved the output, so a stale entry would show.
    EXPECT_NE(std::memcmp(now.data().data(), previous.data().data(),
                          now.data().size() * sizeof(float)),
              0);
    previous = now;
  };

  core::BigCityConfig other_config = config;
  other_config.seed = config.seed + 1;
  core::BigCityModel other(dataset_, other_config);
  util::Rng other_lora_rng(4);
  other.backbone()->EnableLora(&other_lora_rng);
  std::stringstream state;
  other.backbone()->SaveState(state);
  ASSERT_TRUE(backbone->LoadState(state).ok());
  expect_followed("LoadState");

  other_config.seed = config.seed + 2;
  core::BigCityModel third(dataset_, other_config);
  util::Rng third_lora_rng(5);
  third.backbone()->EnableLora(&third_lora_rng);
  backbone->CopyStateFrom(*third.backbone());
  expect_followed("CopyStateFrom");

  nn::Adam adam(backbone->TrainableParameters(), /*lr=*/0.05f);
  nn::Tensor loss = nn::Sum(model.NextHopLogits(trajectory));
  loss.Backward();
  adam.Step();
  model.EndStep();
  expect_followed("Adam step on LoRA");

  nn::Tensor positional = ParameterNamed(*backbone, "positional");
  positional.data()[1] += 0.25f;  // An instruction row's position.
  expect_followed("direct data() write");

  backbone->transformer()->block(0)->attn()->wk()->DisableLora();
  expect_followed("DisableLora");

  // A block gains adapters without Backbone::EnableLora and without a
  // write to any existing parameter; its new lora_b starts at zero, so the
  // output holds until that is written.
  util::Rng block_rng(6);
  backbone->transformer()->block(1)->EnableLora(config.lora_rank,
                                                config.lora_alpha, &block_rng);
  ExpectBitIdentical(autograd_free(), full_prompt());
  nn::Tensor lora_b =
      ParameterNamed(*backbone, "transformer.block1.attn.wk.lora_b");
  for (float& value : lora_b.data()) value = 0.1f;
  expect_followed("EnableLora on a block, then a write to its lora_b");
}

TEST_F(BatchTest, InstructionKvFilledInPlanScopeOutlivesTheArena) {
  core::BigCityModel model(dataset_, model_config_);
  const data::Trajectory trajectory = Prefix(AnyTrajectory(6), 6);
  const nn::Tensor expected = model.NextHopLogits(trajectory);
  model.BeginStep();
  nn::PlanCache plans(/*capacity=*/2, /*enabled=*/true);
  // Pass 0 fills the entry inside the scope; the scope's arena rewinds
  // before passes 1 and 2 read it. Under ASan the arena hands out real
  // heap blocks, so an entry left in the arena is a reported use after
  // free.
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE(pass);
    nn::Tensor out;
    {
      nn::NoGradGuard no_grad;
      nn::PlanScope scope(&plans, {"next_hop", 64});
      ASSERT_TRUE(scope.active());
      util::Result<nn::Tensor> result = model.TryNextHopLogits(trajectory);
      ASSERT_TRUE(result.ok());
      nn::ArenaPin pin;
      out = result.value().Detached();
    }
    ExpectBitIdentical(out, expected);
  }
  EXPECT_EQ(plans.poisoned_resets(), 0u);
}

/// Four threads make the first autograd-free forwards of one model at
/// once, after FillLibrary() (a served version): each forwards its own
/// prompt through the backbone (two share an instruction and race to fill
/// it, two fill others), then runs every task's Try* entry point, starting
/// at a different task per thread, then decodes a walk hop by hop from a
/// KV cache of its own. The four caches are seeded by the one next-hop
/// instruction entry, so each first append must copy the shared rows, never
/// write them in place. Every output matches one thread's bit for bit. Run
/// under TSan by ci/run_ci.sh tsan (serve_check).
TEST_F(BatchTest, ConcurrentFirstAutogradFreeForwardsMatchOneThread) {
  core::BigCityModel model(dataset_, model_config_);
  model.tokenizer()->FillLibrary();
  constexpr int kThreads = 4;
  const core::Task tasks[kThreads] = {
      core::Task::kNextHop, core::Task::kNextHop,
      core::Task::kTrajClassification, core::Task::kTravelTimeEstimation};
  std::vector<core::PromptInput> prompts;
  {
    nn::NoGradGuard no_grad;
    for (int t = 0; t < kThreads; ++t) {
      core::PromptInput prompt;
      prompt.text_ids = model.text_tokenizer().Encode(
          core::InstructionFor(tasks[t]));
      prompt.st_tokens = model.tokenizer()->Tokenize(
          data::StUnitSequence::FromTrajectory(Prefix(AnyTrajectory(8),
                                                      3 + t)));
      prompt.task_tokens = {core::TaskTokenKind::kClas};
      prompts.push_back(std::move(prompt));
    }
  }
  const data::Trajectory trajectory = Prefix(AnyTrajectory(8), 8);
  const std::vector<std::function<util::Result<nn::Tensor>()>> every_task = {
      [&] { return model.TryNextHopLogits(trajectory); },
      [&] { return model.TryTravelTimeDeltas(trajectory); },
      [&] { return model.TryClassifyLogits(trajectory); },
      [&] { return model.TryEmbed(trajectory); },
      [&] { return model.TryRecoverLogits(trajectory, {0, 3, 7}); },
      [&] { return model.TryPredictTraffic(/*segment=*/1, 0, 1); },
      [&] { return model.TryPredictTraffic(/*segment=*/1, 0, 3); },
      [&] { return model.TryImputeTraffic(/*segment=*/1, 0, 8, {2, 5}); },
  };
  const auto run_every_task = [&](size_t first) {
    std::vector<util::Result<nn::Tensor>> results(
        every_task.size(), util::Status::Internal("not run"));
    for (size_t k = 0; k < every_task.size(); ++k) {
      const size_t task = (first + k) % every_task.size();
      results[task] = every_task[task]();
    }
    return results;
  };
  const auto walk_from = [](int t) { return 2 + t % 2; };
  const auto decode_walk = [&](int t) {
    nn::KvCache cache;
    const std::vector<nn::KvCache*> caches = {&cache};
    std::vector<nn::Tensor> logits;
    for (int len = walk_from(t); len <= 8; ++len) {
      util::Result<std::vector<nn::Tensor>> step =
          model.TryBatchNextHopLogits({Prefix(trajectory, len)}, &caches);
      EXPECT_TRUE(step.ok()) << step.status().ToString();
      logits.push_back(step.ok() ? step.value()[0] : nn::Tensor());
    }
    return logits;
  };
  std::vector<nn::Tensor> concurrent(kThreads);
  std::vector<std::vector<util::Result<nn::Tensor>>> concurrent_tasks(
      kThreads);
  std::vector<std::vector<nn::Tensor>> walks(kThreads);
  std::latch start(kThreads);
  std::latch decode_start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      nn::NoGradGuard no_grad;
      start.arrive_and_wait();
      concurrent[static_cast<size_t>(t)] =
          model.backbone()->Forward(prompts[static_cast<size_t>(t)])
              .task_outputs;
      concurrent_tasks[static_cast<size_t>(t)] =
          run_every_task(2 * static_cast<size_t>(t));
      decode_start.arrive_and_wait();
      walks[static_cast<size_t>(t)] = decode_walk(t);
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<util::Result<nn::Tensor>> one_thread;
  {
    nn::NoGradGuard no_grad;
    one_thread = run_every_task(0);
  }
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    const core::PromptInput& prompt = prompts[static_cast<size_t>(t)];
    {
      nn::NoGradGuard no_grad;
      ExpectBitIdentical(concurrent[static_cast<size_t>(t)],
                         model.backbone()->Forward(prompt).task_outputs);
    }
    ExpectBitIdentical(concurrent[static_cast<size_t>(t)],
                       model.backbone()->Forward(prompt).task_outputs);
    for (size_t task = 0; task < every_task.size(); ++task) {
      SCOPED_TRACE(task);
      const util::Result<nn::Tensor>& got =
          concurrent_tasks[static_cast<size_t>(t)][task];
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(one_thread[task].ok());
      ExpectBitIdentical(got.value(), one_thread[task].value());
    }
    const std::vector<nn::Tensor>& walk = walks[static_cast<size_t>(t)];
    ASSERT_EQ(walk.size(), static_cast<size_t>(9 - walk_from(t)));
    for (size_t i = 0; i < walk.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "walk step " << i);
      nn::NoGradGuard no_grad;
      const data::Trajectory prefix =
          Prefix(trajectory, walk_from(t) + static_cast<int>(i));
      ExpectBitIdentical(walk[i], model.TryNextHopLogits(prefix).value());
    }
  }
}

// --- Batcher dispatch policy ------------------------------------------------

struct FakeItem {
  int key = 0;
  double remaining_us = std::numeric_limits<double>::infinity();
};

Batcher<FakeItem>::Options BatchOptions(int batch_max, double window_us,
                                        size_t capacity = 16) {
  Batcher<FakeItem>::Options options;
  options.capacity = capacity;
  options.batch_max = batch_max;
  options.window_us = window_us;
  return options;
}

TEST(BatcherTest, FullGroupDispatchesWithoutWaitingForWindow) {
  Batcher<FakeItem> batcher(
      BatchOptions(4, /*window_us=*/10e6),
      [](const FakeItem& item) { return item.key; },
      [](const FakeItem& item) { return item.remaining_us; },
      [] { return 1000.0; });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(batcher.TryPush(FakeItem{1}));
  const auto start = std::chrono::steady_clock::now();
  std::vector<FakeItem> batch = batcher.NextBatch();
  const double elapsed_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(elapsed_us, 5e6);  // Far below the 10s window.
}

TEST(BatcherTest, WindowExpiryDispatchesPartialGroup) {
  Batcher<FakeItem> batcher(
      BatchOptions(8, /*window_us=*/5000.0),
      [](const FakeItem& item) { return item.key; },
      [](const FakeItem& item) { return item.remaining_us; },
      [] { return 1000.0; });
  ASSERT_TRUE(batcher.TryPush(FakeItem{1}));
  ASSERT_TRUE(batcher.TryPush(FakeItem{1}));
  std::vector<FakeItem> batch = batcher.NextBatch();
  EXPECT_EQ(batch.size(), 2u);  // Both, once the window lapsed.
}

TEST(BatcherTest, UrgentItemNeverWaitsForBatchFill) {
  Batcher<FakeItem> batcher(
      BatchOptions(8, /*window_us=*/10e6),
      [](const FakeItem& item) { return item.key; },
      [](const FakeItem& item) { return item.remaining_us; },
      [] { return 100e3; });  // 100ms urgency margin.
  // One item with only 1ms of budget left: dispatch immediately even
  // though the group is nowhere near batch_max and the window is 10s.
  ASSERT_TRUE(batcher.TryPush(FakeItem{1, 1000.0}));
  const auto start = std::chrono::steady_clock::now();
  std::vector<FakeItem> batch = batcher.NextBatch();
  const double elapsed_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(elapsed_us, 5e6);
}

TEST(BatcherTest, GroupsNeverMixKeysAndDrainOnClose) {
  Batcher<FakeItem> batcher(
      BatchOptions(8, /*window_us=*/10e6),
      [](const FakeItem& item) { return item.key; },
      [](const FakeItem& item) { return item.remaining_us; },
      [] { return 1000.0; });
  ASSERT_TRUE(batcher.TryPush(FakeItem{1}));
  ASSERT_TRUE(batcher.TryPush(FakeItem{2}));
  ASSERT_TRUE(batcher.TryPush(FakeItem{1}));
  batcher.Close();  // Closed queue: everything dispatches, still per key.
  std::vector<FakeItem> first = batcher.NextBatch();
  std::vector<FakeItem> second = batcher.NextBatch();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].key, 1);
  EXPECT_EQ(first[1].key, 1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].key, 2);
  EXPECT_TRUE(batcher.NextBatch().empty());  // Drained: shutdown signal.
}

TEST(BatcherTest, NegativeKeyDispatchesAloneImmediately) {
  Batcher<FakeItem> batcher(
      BatchOptions(8, /*window_us=*/10e6),
      [](const FakeItem& item) { return item.key; },
      [](const FakeItem& item) { return item.remaining_us; },
      [] { return 1000.0; });
  ASSERT_TRUE(batcher.TryPush(FakeItem{-1}));
  ASSERT_TRUE(batcher.TryPush(FakeItem{-1}));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.NextBatch().size(), 1u);
  EXPECT_EQ(batcher.NextBatch().size(), 1u);
  const double elapsed_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_us, 5e6);
}

TEST(BatcherTest, CapacityCountsExaminedItemsUntilTaken) {
  Batcher<FakeItem> batcher(
      BatchOptions(8, /*window_us=*/10e6, /*capacity=*/4),
      [](const FakeItem& item) { return item.key; },
      [](const FakeItem& item) { return item.remaining_us; },
      [] { return 1000.0; });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(batcher.TryPush(FakeItem{-1}));
  // The worker examined all four but took one: three still wait, so
  // exactly one slot is free.
  EXPECT_EQ(batcher.NextBatch().size(), 1u);
  EXPECT_TRUE(batcher.TryPush(FakeItem{-1}));
  EXPECT_FALSE(batcher.TryPush(FakeItem{-1}));
  EXPECT_EQ(batcher.depth(), 4u);
}

TEST(BatcherTest, ConcurrentProducersAndWorkersHandOutEachItemOnce) {
  struct IdItem {
    int id = 0;
    int key = 0;
  };
  constexpr size_t kCapacity = 32;
  constexpr int kBatchMax = 4;
  constexpr int kProducers = 4;
  constexpr int kWorkers = 3;
  constexpr int kPerProducer = 2000;
  Batcher<IdItem> queue(
      {.capacity = kCapacity, .batch_max = kBatchMax, .window_us = 50.0},
      [](const IdItem& item) { return item.key; },
      [](const IdItem&) { return std::numeric_limits<double>::infinity(); },
      [] { return 0.0; });
  std::atomic<size_t> max_depth{0};
  const auto note_depth = [&] {
    const size_t depth = queue.depth();
    size_t seen = max_depth.load();
    while (depth > seen && !max_depth.compare_exchange_weak(seen, depth)) {
    }
  };

  std::vector<std::vector<int>> admitted(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int id = p * kPerProducer + i;
        // Keys -1..3: unbatchable singles and four batchable groups.
        if (queue.TryPush(IdItem{id, id % 5 - 1})) {
          admitted[static_cast<size_t>(p)].push_back(id);
        } else {
          std::this_thread::yield();
        }
        note_depth();
      }
    });
  }
  std::vector<std::vector<int>> taken(kWorkers);
  std::atomic<int> bad_batches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (;;) {
        std::vector<IdItem> batch = queue.NextBatch();
        if (batch.empty()) return;  // Closed and drained.
        note_depth();
        const int key = batch.front().key;
        bool ok = static_cast<int>(batch.size()) <= kBatchMax &&
                  (key >= 0 || batch.size() == 1);
        for (const IdItem& item : batch) {
          ok = ok && item.key == key;
          taken[static_cast<size_t>(w)].push_back(item.id);
        }
        if (!ok) bad_batches.fetch_add(1);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  queue.Close();
  for (std::thread& worker : workers) worker.join();

  std::vector<int> all_admitted, all_taken;
  for (const std::vector<int>& ids : admitted) {
    all_admitted.insert(all_admitted.end(), ids.begin(), ids.end());
  }
  for (const std::vector<int>& ids : taken) {
    all_taken.insert(all_taken.end(), ids.begin(), ids.end());
  }
  std::sort(all_admitted.begin(), all_admitted.end());
  std::sort(all_taken.begin(), all_taken.end());
  EXPECT_FALSE(all_admitted.empty());
  // Admitted ids are unique, so equal sorted lists mean every admitted
  // item was handed out exactly once.
  EXPECT_EQ(all_taken, all_admitted);
  EXPECT_EQ(bad_batches.load(), 0) << "a batch mixed keys, exceeded "
                                      "batch_max or grouped a negative key";
  EXPECT_LE(max_depth.load(), kCapacity);
  EXPECT_EQ(queue.depth(), 0u);
}

// --- Server-level batching --------------------------------------------------

class BatchServeTest : public BatchTest {
 protected:
  static ServeOptions BatchingOptions() {
    ServeOptions options;
    options.num_workers = 1;
    options.queue_capacity = 64;
    options.retry_backoff_ms = 0.1;
    options.batch_max = 8;
    options.batch_window_us = 200.0;
    return options;
  }
};

TEST_F(BatchServeTest, BacklogCoalescesIntoBitIdenticalBatch) {
  InferenceServer server(dataset_, model_config_, BatchingOptions(), model_);
  ASSERT_TRUE(server.Start().ok());

  // Park the single worker on a decoy so a backlog builds behind it; on
  // release the batcher must coalesce the backlog into one forward.
  util::ScopedFault hold(util::kFaultServeWorkerHold, 0, 1, /*param=*/1);
  Request decoy_request;
  decoy_request.task = core::Task::kNextHop;
  decoy_request.trajectory = AnyTrajectory();
  std::future<Response> decoy = server.Submit(decoy_request);
  while (hold.fire_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<data::Trajectory> prefixes = RaggedTrajectories(6);
  std::vector<std::future<Response>> futures;
  for (const data::Trajectory& prefix : prefixes) {
    Request request;
    request.task = core::Task::kNextHop;
    request.trajectory = prefix;
    futures.push_back(server.Submit(request));
  }
  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);
  ASSERT_TRUE(decoy.get().status.ok());

  int max_batch = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    max_batch = std::max(max_batch, response.batch_size);
    ExpectBitIdentical(response.output, model_->NextHopLogits(prefixes[i]));
  }
  // The whole backlog was queued while the worker was parked, so it must
  // have shipped as (at least one) real batch.
  EXPECT_GT(max_batch, 1);
}

TEST_F(BatchServeTest, MixedTaskBacklogBatchesPerTask) {
  InferenceServer server(dataset_, model_config_, BatchingOptions(), model_);
  ASSERT_TRUE(server.Start().ok());

  util::ScopedFault hold(util::kFaultServeWorkerHold, 0, 1, /*param=*/1);
  Request decoy_request;
  decoy_request.task = core::Task::kNextHop;
  decoy_request.trajectory = AnyTrajectory();
  std::future<Response> decoy = server.Submit(decoy_request);
  while (hold.fire_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<data::Trajectory> trajectories = RaggedTrajectories(4);
  std::vector<std::future<Response>> hop_futures;
  std::vector<std::future<Response>> tte_futures;
  for (const data::Trajectory& trajectory : trajectories) {
    Request hop;
    hop.task = core::Task::kNextHop;
    hop.trajectory = trajectory;
    hop_futures.push_back(server.Submit(hop));
    Request tte;
    tte.task = core::Task::kTravelTimeEstimation;
    tte.trajectory = trajectory;
    tte_futures.push_back(server.Submit(tte));
  }
  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);
  ASSERT_TRUE(decoy.get().status.ok());

  for (size_t i = 0; i < trajectories.size(); ++i) {
    Response hop = hop_futures[i].get();
    ASSERT_TRUE(hop.status.ok()) << hop.status.ToString();
    // A batch never mixes tasks, so a next-hop batch holds at most the
    // four next-hop requests.
    EXPECT_LE(hop.batch_size, 4);
    ExpectBitIdentical(hop.output, model_->NextHopLogits(trajectories[i]));
    Response tte = tte_futures[i].get();
    ASSERT_TRUE(tte.status.ok()) << tte.status.ToString();
    EXPECT_LE(tte.batch_size, 4);
    ExpectBitIdentical(tte.output,
                       model_->TravelTimeDeltas(trajectories[i]));
  }
}

TEST_F(BatchServeTest, KvSessionServesExtensionsBitIdentically) {
  ServeOptions options = BatchingOptions();
  InferenceServer server(dataset_, model_config_, options, model_);
  ASSERT_TRUE(server.Start().ok());

  const data::Trajectory& full = AnyTrajectory(6);
  const int max_len = std::min(full.length(), 8);
  const uint64_t hits_before = CounterValue("serve.cache.kv.hit");
  for (int len = 2; len <= max_len; ++len) {
    SCOPED_TRACE(len);
    Request request;
    request.task = core::Task::kNextHop;
    request.trajectory = Prefix(full, len);
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ExpectBitIdentical(response.output,
                       model_->NextHopLogits(Prefix(full, len)));
  }
#if BIGCITY_OBS
  // Every extension after the first reuses the session's attention state.
  EXPECT_GE(CounterValue("serve.cache.kv.hit"),
            hits_before + static_cast<uint64_t>(max_len - 2));
#else
  (void)hits_before;
#endif
}

TEST_F(BatchServeTest, BatchingOffMatchesBatchingOn) {
  ServeOptions on = BatchingOptions();
  ServeOptions off = BatchingOptions();
  off.batch_max = 1;
  off.kv_sessions = 0;

  InferenceServer server_on(dataset_, model_config_, on, model_);
  InferenceServer server_off(dataset_, model_config_, off, model_);
  ASSERT_TRUE(server_on.Start().ok());
  ASSERT_TRUE(server_off.Start().ok());

  std::vector<data::Trajectory> prefixes = RaggedTrajectories(5);
  for (const data::Trajectory& prefix : prefixes) {
    Request request;
    request.task = core::Task::kNextHop;
    request.trajectory = prefix;
    Response with = server_on.ServeSync(request);
    Response without = server_off.ServeSync(request);
    ASSERT_TRUE(with.status.ok());
    ASSERT_TRUE(without.status.ok());
    ExpectBitIdentical(with.output, without.output);
  }
}

}  // namespace
}  // namespace bigcity::serve
