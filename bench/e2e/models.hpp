// Models and inputs of the e2e workloads.
//
// Networks carry calibrated random weights (the latency-bench recipe:
// seeded init, batch norm warmed on a calibration batch, activation
// steps from one calibration pass, L=2 quantized ReLU). Host time and
// modeled cycles depend on geometry and spike activity, not on task
// accuracy, so no training is needed. Model weights come from a fixed
// seed; only the inputs follow the workload seed, so every seed
// measures the same program on different data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sia::bench::e2e {

inline constexpr std::uint64_t kModelSeed = 97;
inline constexpr int kActivationLevels = 2;

/// Uniform [0, 1) images [n, c, size, size].
inline tensor::Tensor uniform_images(std::int64_t n, std::int64_t c, std::int64_t size,
                                     util::Rng& rng) {
    tensor::Tensor x(tensor::Shape{n, c, size, size});
    for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform();
    return x;
}

/// Seeded ANN of `ModelT`, with batch norm and activation steps
/// calibrated on `x` [N, C, H, W].
template <typename ModelT, typename ConfigT>
std::unique_ptr<ModelT> calibrated_ann(const ConfigT& config, const tensor::Tensor& x) {
    util::Rng rng(kModelSeed);
    auto model = std::make_unique<ModelT>(config, rng);
    for (int rep = 0; rep < 3; ++rep) (void)model->forward(x, true);  // warm BN
    model->begin_activation_calibration();
    (void)model->forward(x, false);
    model->end_activation_calibration();
    model->enable_quantized_activations(kActivationLevels);
    return model;
}

/// Single images [1, c, size, size] drawn from `seed`.
inline std::vector<tensor::Tensor> image_pool(std::size_t count, std::int64_t c,
                                              std::int64_t size, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<tensor::Tensor> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) pool.push_back(uniform_images(1, c, size, rng));
    return pool;
}

}  // namespace sia::bench::e2e
