#include "nn/transformer.h"

#include "nn/ops.h"
#include "util/check.h"
#include "obs/profiler.h"

namespace bigcity::nn {

TransformerBlock::TransformerBlock(int64_t dim, int64_t num_heads,
                                   util::Rng* rng, bool causal) {
  ln1_ = std::make_unique<LayerNormLayer>(dim);
  attn_ = std::make_unique<MultiHeadSelfAttention>(dim, num_heads, rng,
                                                   causal);
  ln2_ = std::make_unique<LayerNormLayer>(dim);
  ffn_up_ = std::make_unique<LoraLinear>(dim, 4 * dim, rng);
  ffn_down_ = std::make_unique<LoraLinear>(4 * dim, dim, rng);
  RegisterModule("ln1", ln1_.get());
  RegisterModule("attn", attn_.get());
  RegisterModule("ln2", ln2_.get());
  RegisterModule("ffn_up", ffn_up_.get());
  RegisterModule("ffn_down", ffn_down_.get());
}

Tensor TransformerBlock::Forward(const Tensor& x) const {
  return ForwardBatched(x, {x.shape()[0]});
}

Tensor TransformerBlock::ForwardBatched(
    const Tensor& x, const std::vector<int64_t>& lens,
    const std::vector<AttentionKv*>& kv) const {
  BIGCITY_PROFILE_MODULE(module_path().c_str());
  // LN, FFN, and the fused residual epilogues are all row-wise, so only
  // the attention core needs the sequence boundaries. Both pre-norm skip
  // connections ride the fused residual epilogues of the output / down
  // projections; the FFN activation is fused with its bias add.
  Tensor h = attn_->ForwardBatched(ln1_->Forward(x), /*residual=*/x, lens, kv);
  return ffn_down_->ForwardResidual(ffn_up_->ForwardGelu(ln2_->Forward(h)),
                                    h);
}

void TransformerBlock::EnableLora(int64_t rank, float alpha, util::Rng* rng) {
  attn_->wq()->EnableLora(rank, alpha, rng);
  attn_->wk()->EnableLora(rank, alpha, rng);
  attn_->wv()->EnableLora(rank, alpha, rng);
  ffn_up_->EnableLora(rank, alpha, rng);
  ffn_down_->EnableLora(rank, alpha, rng);
}

void TransformerBlock::FreezeBase() {
  attn_->wq()->FreezeBase();
  attn_->wk()->FreezeBase();
  attn_->wv()->FreezeBase();
  attn_->wo()->FreezeBase();
  ffn_up_->FreezeBase();
  ffn_down_->FreezeBase();
  for (auto& p : ln1_->Parameters()) p.set_requires_grad(false);
  for (auto& p : ln2_->Parameters()) p.set_requires_grad(false);
}

bool TransformerBlock::lora_enabled() const {
  return attn_->wq()->lora_enabled();
}

Transformer::Transformer(int64_t dim, int64_t num_heads, int64_t num_layers,
                         util::Rng* rng, bool causal) {
  BIGCITY_CHECK_GT(num_layers, 0);
  for (int64_t i = 0; i < num_layers; ++i) {
    blocks_.push_back(
        std::make_unique<TransformerBlock>(dim, num_heads, rng, causal));
    RegisterModule("block" + std::to_string(i), blocks_.back().get());
  }
  final_ln_ = std::make_unique<LayerNormLayer>(dim);
  RegisterModule("final_ln", final_ln_.get());
}

Tensor Transformer::Forward(const Tensor& x) const {
  return ForwardBatched(x, {x.shape()[0]});
}

Tensor Transformer::ForwardBatched(const Tensor& x,
                                   const std::vector<int64_t>& lens,
                                   const std::vector<KvCache*>& caches) const {
  BIGCITY_PROFILE_MODULE(module_path().c_str());
  if (!caches.empty()) {
    BIGCITY_CHECK_EQ(caches.size(), lens.size());
    for (KvCache* cache : caches) {
      if (cache == nullptr) continue;
      if (cache->layers.empty()) {
        cache->layers.resize(static_cast<size_t>(num_layers()));
      }
      BIGCITY_CHECK_EQ(cache->layers.size(), blocks_.size());
    }
  }
  Tensor h = x;
  std::vector<AttentionKv*> layer_kvs(caches.size(), nullptr);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    for (size_t seq = 0; seq < caches.size(); ++seq) {
      if (caches[seq] != nullptr) layer_kvs[seq] = &caches[seq]->layers[i];
    }
    h = blocks_[i]->ForwardBatched(h, lens, layer_kvs);
  }
  return final_ln_->Forward(h);
}

Tensor Transformer::ForwardCached(const Tensor& x, KvCache* cache) const {
  BIGCITY_CHECK(blocks_.front()->attn()->causal())
      << "KV caching requires causal attention";
  return ForwardBatched(x, {x.shape()[0]}, {cache});
}

void Transformer::EnableLora(int64_t rank, float alpha, int64_t num_blocks,
                             util::Rng* rng) {
  BIGCITY_CHECK_LE(num_blocks, num_layers());
  for (int64_t i = 0; i < num_blocks; ++i) {
    blocks_[static_cast<size_t>(i)]->EnableLora(rank, alpha, rng);
  }
}

void Transformer::FreezeBase() {
  for (auto& block : blocks_) block->FreezeBase();
  for (auto& p : final_ln_->Parameters()) p.set_requires_grad(false);
}

}  // namespace bigcity::nn
