// Resilience layer: checkpoint container integrity (magic/version/CRC,
// atomic commit), the fault-injection harness, and optimizer/RNG state
// round trips that crash-safe training resume builds on.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "scratch_dir.h"
#include "util/checkpoint.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/rng.h"

namespace bigcity::util {
namespace {

std::string TempPath(const std::string& name) {
  return (testing_util::ProcessScratchDir("bigcity_checkpoint_") / name)
      .string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Commits a container holding one marker string; returns the path.
std::string CommitMarker(const std::string& name, const std::string& marker) {
  const std::string path = TempPath(name);
  CheckpointWriter writer;
  WriteString(writer.stream(), marker);
  EXPECT_TRUE(writer.Commit(path).ok());
  return path;
}

TEST(Crc32Test, MatchesKnownVector) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SeedChainsPartialComputations) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t first = Crc32(data.data(), 10);
  const uint32_t chained = Crc32(data.data() + 10, data.size() - 10, first);
  EXPECT_EQ(whole, chained);
}

TEST(FaultInjectionTest, SkipAndCountSemantics) {
  FaultInjection::DisarmAll();
  FaultInjection::Arm("test.site", /*skip=*/2, /*count=*/2, /*param=*/17);
  EXPECT_EQ(FaultInjection::Param("test.site"), 17);
  EXPECT_FALSE(FaultInjection::Fire("test.site"));  // skipped
  EXPECT_FALSE(FaultInjection::Fire("test.site"));  // skipped
  EXPECT_TRUE(FaultInjection::Fire("test.site"));
  EXPECT_TRUE(FaultInjection::Fire("test.site"));
  EXPECT_FALSE(FaultInjection::Fire("test.site"));  // exhausted
  EXPECT_EQ(FaultInjection::FireCount("test.site"), 2);
  EXPECT_FALSE(FaultInjection::Fire("other.site"));  // never armed
  FaultInjection::DisarmAll();
}

TEST(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("scoped.site");
    EXPECT_TRUE(FaultInjection::Fire("scoped.site"));
    EXPECT_EQ(fault.fire_count(), 1);
  }
  EXPECT_FALSE(FaultInjection::Fire("scoped.site"));
  EXPECT_EQ(FaultInjection::FireCount("scoped.site"), 0);
}

TEST(CheckpointTest, RoundTripPreservesPayload) {
  const std::string path = TempPath("bigcity_ckpt_roundtrip.ckpt");
  CheckpointWriter writer;
  WriteU64(writer.stream(), 42);
  WriteFloatVector(writer.stream(), {1.5f, -2.25f, 0.0f});
  WriteString(writer.stream(), "resilient");
  ASSERT_TRUE(writer.Commit(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.format_version(), kCheckpointFormatVersion);
  uint64_t value = 0;
  std::vector<float> floats;
  std::string text;
  ASSERT_TRUE(ReadU64(reader.stream(), &value).ok());
  ASSERT_TRUE(ReadFloatVector(reader.stream(), &floats).ok());
  ASSERT_TRUE(ReadString(reader.stream(), &text).ok());
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(floats, (std::vector<float>{1.5f, -2.25f, 0.0f}));
  EXPECT_EQ(text, "resilient");
  std::filesystem::remove(path);
}

TEST(CheckpointTest, CommitAtomicallyReplacesExisting) {
  const std::string path = CommitMarker("bigcity_ckpt_replace.ckpt", "v1");
  CheckpointWriter writer;
  WriteString(writer.stream(), "v2");
  ASSERT_TRUE(writer.Commit(path).ok());
  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string marker;
  ASSERT_TRUE(ReadString(reader.stream(), &marker).ok());
  EXPECT_EQ(marker, "v2");
  std::filesystem::remove(path);
}

TEST(CheckpointTest, MissingFileIsDescriptiveError) {
  CheckpointReader reader;
  const Status status = reader.Open("/nonexistent/dir/state.ckpt");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cannot open"), std::string::npos);
}

TEST(CheckpointTest, BadMagicRejected) {
  const std::string path = TempPath("bigcity_ckpt_badmagic.ckpt");
  WriteFileBytes(path, "XXXXsome bytes that are not a checkpoint at all");
  CheckpointReader reader;
  const Status status = reader.Open(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, UnsupportedVersionRejected) {
  const std::string path =
      CommitMarker("bigcity_ckpt_version.ckpt", "payload");
  std::string bytes = ReadFileBytes(path);
  bytes[4] = 99;  // Format-version field follows the 4-byte magic.
  WriteFileBytes(path, bytes);
  CheckpointReader reader;
  const Status status = reader.Open(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, TruncationRejectedAtEveryBoundary) {
  const std::string path =
      CommitMarker("bigcity_ckpt_trunc.ckpt", "a payload long enough to cut");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 24u);
  // Mid-magic, mid-header, and mid-payload truncations must all fail.
  for (const size_t keep : {size_t{2}, size_t{10}, bytes.size() - 3}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    CheckpointReader reader;
    const Status status = reader.Open(path);
    const bool descriptive =
        status.message().find("truncated") != std::string::npos ||
        status.message().find("magic") != std::string::npos;
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
    EXPECT_TRUE(descriptive) << status.message();
  }
  std::filesystem::remove(path);
}

TEST(CheckpointTest, BitFlipOnDiskRejectedByCrc) {
  const std::string path =
      CommitMarker("bigcity_ckpt_bitflip.ckpt", "integrity matters");
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 2] ^= 0x40;  // Inside the payload region.
  WriteFileBytes(path, bytes);
  CheckpointReader reader;
  const Status status = reader.Open(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CRC"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, TrailingBytesRejected) {
  const std::string path =
      CommitMarker("bigcity_ckpt_trailing.ckpt", "payload");
  WriteFileBytes(path, ReadFileBytes(path) + "x");
  CheckpointReader reader;
  EXPECT_FALSE(reader.Open(path).ok());
  std::filesystem::remove(path);
}

TEST(CheckpointTest, TornWriteFaultLeavesDestinationIntact) {
  const std::string path =
      CommitMarker("bigcity_ckpt_torn.ckpt", "good version");
  {
    ScopedFault torn(kFaultCheckpointTornWrite, 0, 1, /*param=*/9);
    CheckpointWriter writer;
    WriteString(writer.stream(), "doomed version");
    const Status status = writer.Commit(path);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(torn.fire_count(), 1);
  }
  // The crash hit the temp file only: the old checkpoint still loads.
  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string marker;
  ASSERT_TRUE(ReadString(reader.stream(), &marker).ok());
  EXPECT_EQ(marker, "good version");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TEST(CheckpointTest, InjectedBitFlipCaughtOnRead) {
  const std::string path = TempPath("bigcity_ckpt_flipfault.ckpt");
  {
    ScopedFault flip(kFaultCheckpointBitFlip, 0, 1, /*param=*/3);
    CheckpointWriter writer;
    WriteString(writer.stream(), "will be corrupted in flight");
    ASSERT_TRUE(writer.Commit(path).ok());
    EXPECT_EQ(flip.fire_count(), 1);
  }
  CheckpointReader reader;
  const Status status = reader.Open(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CRC"), std::string::npos);
  std::filesystem::remove(path);
}

/// Minimal module for file-level checkpoint tests.
struct TinyModule : nn::Module {
  nn::Tensor w;
  explicit TinyModule(Rng* rng) {
    w = RegisterParameter("w", nn::Tensor::Randn({3, 3}, rng, 1.0f, true));
  }
};

TEST(ModuleCheckpointTest, FileRoundTripThroughContainer) {
  Rng rng(11);
  TinyModule a(&rng);
  TinyModule b(&rng);
  const std::string path = TempPath("bigcity_module_container.ckpt");
  ASSERT_TRUE(a.SaveStateToFile(path).ok());
  ASSERT_TRUE(b.LoadStateFromFile(path).ok());
  EXPECT_EQ(a.w.data(), b.w.data());
  std::filesystem::remove(path);
}

TEST(ModuleCheckpointTest, LegacyRawFileRejectedNotGarbageLoaded) {
  Rng rng(12);
  TinyModule a(&rng);
  const std::string path = TempPath("bigcity_module_legacy.bin");
  {
    // The pre-container format: raw SaveState bytes straight to disk.
    std::ofstream out(path, std::ios::binary);
    a.SaveState(out);
  }
  TinyModule b(&rng);
  const std::vector<float> before(b.w.data().begin(), b.w.data().end());
  const util::Status status = b.LoadStateFromFile(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
  EXPECT_EQ(b.w.data(), before);  // Untouched on rejection.
  std::filesystem::remove(path);
}

TEST(ModuleCheckpointTest, TruncatedModuleCheckpointRejected) {
  Rng rng(13);
  TinyModule a(&rng);
  const std::string path = TempPath("bigcity_module_trunc.ckpt");
  ASSERT_TRUE(a.SaveStateToFile(path).ok());
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  TinyModule b(&rng);
  EXPECT_FALSE(b.LoadStateFromFile(path).ok());
  std::filesystem::remove(path);
}

TEST(AdamStateTest, RoundTripContinuesBitIdentical) {
  auto make_param = [] {
    return nn::Tensor::FromData({2, 2}, {1.0f, -2.0f, 3.0f, 0.5f}, true);
  };
  auto set_grad = [](nn::Tensor* p, float base) {
    p->grad().assign(4, 0.0f);
    for (int i = 0; i < 4; ++i) p->grad()[static_cast<size_t>(i)] =
        base + static_cast<float>(i);
  };
  nn::Tensor pa = make_param();
  nn::Tensor pb = make_param();
  nn::Adam opt_a({pa}, 0.05f);
  set_grad(&pa, 0.1f);
  opt_a.Step();

  std::stringstream state;
  opt_a.SaveState(state);
  nn::Adam opt_b({pb}, 0.99f);  // Deliberately wrong LR, overwritten below.
  ASSERT_TRUE(opt_b.LoadState(state).ok());
  pb.data() = pa.data();  // Trainer restores parameters separately.
  EXPECT_EQ(opt_b.lr(), opt_a.lr());

  // Identical further steps must produce identical parameters, which only
  // holds if t and both moment buffers were restored exactly.
  for (int step = 0; step < 3; ++step) {
    set_grad(&pa, -0.3f * static_cast<float>(step));
    set_grad(&pb, -0.3f * static_cast<float>(step));
    opt_a.Step();
    opt_b.Step();
    ASSERT_EQ(pa.data(), pb.data()) << "diverged at step " << step;
  }
}

TEST(AdamStateTest, ParameterCountMismatchRejected) {
  nn::Tensor p = nn::Tensor::FromData({2}, {1.0f, 2.0f}, true);
  nn::Tensor q = nn::Tensor::FromData({2}, {1.0f, 2.0f}, true);
  nn::Adam one({p}, 0.1f);
  std::stringstream state;
  one.SaveState(state);
  nn::Adam two({p, q}, 0.1f);
  EXPECT_FALSE(two.LoadState(state).ok());
}

TEST(RngStateTest, SaveLoadReproducesDrawSequence) {
  Rng a(99);
  for (int i = 0; i < 50; ++i) a.UniformInt(0, 1000);
  const std::string state = a.SaveState();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) expected.push_back(a.UniformInt(0, 1000));
  Rng b(1);  // Different seed; state restore must override it.
  ASSERT_TRUE(b.LoadState(state));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(b.UniformInt(0, 1000), expected[static_cast<size_t>(i)]);
  }
  EXPECT_FALSE(b.LoadState("not an engine state ???"));
}

}  // namespace
}  // namespace bigcity::util
