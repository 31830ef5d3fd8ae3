#include "model/gru.h"

#include <cmath>
#include <stdexcept>

namespace netfm::model {

using nn::Tensor;

GruClassifier::GruClassifier(const GruConfig& config)
    : config_(config), rng_(config.seed) {
  Rng init(config.seed);
  const auto dense = [&](std::size_t in, std::size_t out,
                         const std::string& name) {
    const float stddev = std::sqrt(2.0f / static_cast<float>(in + out));
    return nn::Parameter{name, Tensor::randn({in, out}, init, stddev)};
  };
  embed_ = {"gru.embed",
            Tensor::randn({config.vocab_size, config.embed_dim}, init, 0.1f)};
  wz_ = dense(config.embed_dim, config.hidden_dim, "gru.wz");
  uz_ = dense(config.hidden_dim, config.hidden_dim, "gru.uz");
  bz_ = {"gru.bz", Tensor({config.hidden_dim}, true)};
  wr_ = dense(config.embed_dim, config.hidden_dim, "gru.wr");
  ur_ = dense(config.hidden_dim, config.hidden_dim, "gru.ur");
  br_ = {"gru.br", Tensor({config.hidden_dim}, true)};
  wh_ = dense(config.embed_dim, config.hidden_dim, "gru.wh");
  uh_ = dense(config.hidden_dim, config.hidden_dim, "gru.uh");
  bh_ = {"gru.bh", Tensor({config.hidden_dim}, true)};
  out_w_ = dense(config.hidden_dim, config.num_classes, "gru.out_w");
  out_b_ = {"gru.out_b", Tensor({config.num_classes}, true)};
}

void GruClassifier::load_embeddings(std::span<const float> vectors,
                                    bool freeze) {
  if (vectors.size() != config_.vocab_size * config_.embed_dim)
    throw std::invalid_argument("GruClassifier: embedding size mismatch");
  std::copy(vectors.begin(), vectors.end(), embed_.tensor.data().begin());
  freeze_embeddings_ = freeze;
  embed_.tensor.set_requires_grad(!freeze);
}

Tensor GruClassifier::forward(std::span<const int> ids, bool train) const {
  const Tensor inputs = nn::embedding(embed_.tensor, ids);  // [T, E]
  Tensor h = Tensor::zeros({1, config_.hidden_dim});

  for (std::size_t t = 0; t < ids.size(); ++t) {
    const Tensor x = nn::slice_rows(inputs, t, t + 1);  // [1, E]
    const Tensor z = nn::sigmoid(
        nn::add(nn::add(nn::matmul(x, wz_.tensor), nn::matmul(h, uz_.tensor)),
                bz_.tensor));
    const Tensor r = nn::sigmoid(
        nn::add(nn::add(nn::matmul(x, wr_.tensor), nn::matmul(h, ur_.tensor)),
                br_.tensor));
    const Tensor candidate = nn::tanh_op(nn::add(
        nn::add(nn::matmul(x, wh_.tensor),
                nn::matmul(nn::mul(r, h), uh_.tensor)),
        bh_.tensor));
    // h = (1 - z) * h + z * candidate  ==  h + z * (candidate - h)
    h = nn::add(h, nn::mul(z, nn::sub(candidate, h)));
  }
  Tensor pooled = h;
  pooled = nn::dropout(pooled, config_.dropout, train, rng_);
  return nn::linear(pooled, out_w_.tensor, out_b_.tensor);
}

nn::ParameterList GruClassifier::parameters() const {
  nn::ParameterList out;
  if (!freeze_embeddings_) out.push_back(embed_);
  for (const nn::Parameter* p :
       {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wh_, &uh_, &bh_, &out_w_,
        &out_b_})
    out.push_back(*p);
  return out;
}

}  // namespace netfm::model
