#include "ppml/model_zoo.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/rng.h"

namespace ironman::ppml {

const char *
nonlinearOpName(NonlinearOp op)
{
    switch (op) {
      case NonlinearOp::ReLU: return "ReLU";
      case NonlinearOp::MaxPool: return "MaxPool";
      case NonlinearOp::GELU: return "GELU";
      case NonlinearOp::Softmax: return "Softmax";
      case NonlinearOp::LayerNorm: return "LayerNorm";
    }
    return "?";
}

uint64_t
ModelProfile::totalNonlinearElements() const
{
    uint64_t total = 0;
    for (const OpCount &c : nonlinear)
        total += c.elements;
    return total;
}

ModelProfile
mobileNetV2()
{
    // ReLU6 after every inverted-residual expansion. Count fitted
    // to the Table 5 latency ordering (MobileNetV2 < SqueezeNet <
    // ResNet18), which implies the evaluated variant's activation
    // volume rather than the full-width 224x224 network.
    return {"MobileNetV2", false,
            {{NonlinearOp::ReLU, 1450000}},
            0.30, 35};
}

ModelProfile
squeezeNet()
{
    return {"SqueezeNet", false,
            {{NonlinearOp::ReLU, 3820000},
             {NonlinearOp::MaxPool, 480000}},
            0.35, 22};
}

ModelProfile
resNet18()
{
    // conv1 (0.80M) + 16 residual convs + shortcut adds.
    return {"ResNet18", false,
            {{NonlinearOp::ReLU, 2310000},
             {NonlinearOp::MaxPool, 600000}},
            1.82, 17};
}

ModelProfile
resNet34()
{
    return {"ResNet34", false,
            {{NonlinearOp::ReLU, 3880000},
             {NonlinearOp::MaxPool, 600000}},
            3.67, 33};
}

ModelProfile
resNet50()
{
    return {"ResNet50", false,
            {{NonlinearOp::ReLU, 9610000},
             {NonlinearOp::MaxPool, 600000}},
            4.10, 49};
}

ModelProfile
denseNet121()
{
    // Dense connectivity: many activations relative to MACs.
    return {"DenseNet121", false,
            {{NonlinearOp::ReLU, 15200000},
             {NonlinearOp::MaxPool, 700000}},
            2.87, 120};
}

ModelProfile
vitBase()
{
    // 197 tokens, 12 layers, d = 768, 12 heads, MLP 3072.
    return {"ViT", true,
            {{NonlinearOp::GELU, 12ull * 197 * 3072},     // 7.26M
             {NonlinearOp::Softmax, 12ull * 12 * 197 * 197}, // 5.59M
             {NonlinearOp::LayerNorm, 25ull * 197 * 768}},   // 3.78M
            17.6, 50};
}

ModelProfile
bertBase()
{
    // 128 tokens, 12 layers, d = 768.
    return {"BERT-Base", true,
            {{NonlinearOp::GELU, 12ull * 128 * 3072},        // 4.72M
             {NonlinearOp::Softmax, 12ull * 12 * 128 * 128}, // 2.36M
             {NonlinearOp::LayerNorm, 25ull * 128 * 768}},   // 2.46M
            11.2, 50};
}

ModelProfile
bertLarge()
{
    // 128 tokens, 24 layers, d = 1024, 16 heads, MLP 4096.
    return {"BERT-Large", true,
            {{NonlinearOp::GELU, 24ull * 128 * 4096},        // 12.6M
             {NonlinearOp::Softmax, 24ull * 16 * 128 * 128}, // 6.29M
             {NonlinearOp::LayerNorm, 49ull * 128 * 1024}},  // 6.42M
            39.5, 98};
}

ModelProfile
gpt2Large()
{
    // 128 tokens, 36 layers, d = 1280, 20 heads, MLP 5120.
    return {"GPT2-Large", true,
            {{NonlinearOp::GELU, 36ull * 128 * 5120},        // 23.6M
             {NonlinearOp::Softmax, 36ull * 20 * 128 * 128}, // 11.8M
             {NonlinearOp::LayerNorm, 73ull * 128 * 1280}},  // 12.0M
            92.4, 146};
}

std::vector<ModelProfile>
allModels()
{
    return {mobileNetV2(), squeezeNet(), resNet18(),  resNet34(),
            resNet50(),    denseNet121(), vitBase(),  bertBase(),
            bertLarge(),   gpt2Large()};
}

// ---------------------------------------------------------------------------
// Runnable inference zoo
// ---------------------------------------------------------------------------

uint64_t
MlpModelSpec::reluElements() const
{
    uint64_t total = 0;
    for (size_t i = 1; i + 1 < dims.size(); ++i)
        total += dims[i];
    return total;
}

uint64_t
MlpModelSpec::cotsPerImage(unsigned width, CmpMode mode) const
{
    // DReLU: dreluAndGates(width, mode) AND gates per element — 2 per
    // bit position for the ripple, ~w log2(w) for the Kogge-Stone
    // ladder (more offline COTs bought back as ~4-9x fewer online
    // rounds) — at 1 COT per direction each; MUX: 1 COT per direction.
    return reluElements() * (dreluAndGates(width, mode) + 1);
}

namespace {

/**
 * minWidth: smallest width whose signed range holds the worst-case
 * magnitude 2^(fracBits+1) * prod(input dims) plus truncation slack.
 * maxWidth: largest width whose dense accumulators stay inside int64
 * (|share| < 2^(width-1), |w| <= 2^fracBits, summed over max input
 * dim).
 */
MlpModelSpec
makeSpec(uint32_t id, const char *name, std::vector<unsigned> dims,
         int frac_bits, uint64_t weight_seed)
{
    MlpModelSpec s;
    s.id = id;
    s.name = name;
    s.dims = std::move(dims);
    s.fracBits = frac_bits;
    s.weightSeed = weight_seed;

    double magnitude = double(uint64_t(2) << frac_bits); // 2.0 fixed pt
    unsigned max_dim = 1;
    for (size_t l = 0; l + 1 < s.dims.size(); ++l) {
        magnitude *= double(s.dims[l]);
        max_dim = std::max(max_dim, s.dims[l]);
    }
    unsigned bits = 1;
    while ((double)(uint64_t(1) << bits) < magnitude && bits < 60)
        ++bits;
    s.minWidth = bits + 3; // sign bit + truncation-error slack
    unsigned log_dim = std::bit_width(max_dim);
    s.maxWidth = std::min(48u, 62u - unsigned(frac_bits) - log_dim);
    IRONMAN_CHECK(s.minWidth <= s.maxWidth, "degenerate model spec");
    return s;
}

} // namespace

const std::vector<MlpModelSpec> &
inferenceZoo()
{
    static const std::vector<MlpModelSpec> zoo = {
        makeSpec(1, "mlp-16x8x4", {16, 8, 4}, 8, 0xA1),
        makeSpec(2, "mlp-12x6x3", {12, 6, 3}, 3, 0xA2),
        makeSpec(3, "mlp-32x16x10", {32, 16, 10}, 8, 0xA3),
        makeSpec(4, "mlp-16x16x16x8", {16, 16, 16, 8}, 6, 0xA4),
        // Integer-only toy (fracBits 0 => truncation bound 0, exact
        // everywhere): the one zoo entry whose overflow range reaches
        // down to width 8, used to measure packed-wire gains at the
        // narrow end (EXPERIMENTS.md PR 6).
        makeSpec(5, "mlp-4x3x2", {4, 3, 2}, 0, 0xA5),
    };
    return zoo;
}

const MlpModelSpec *
findMlpModel(uint32_t id)
{
    for (const MlpModelSpec &s : inferenceZoo())
        if (s.id == id)
            return &s;
    return nullptr;
}

const MlpModelSpec *
findMlpModel(const std::string &name)
{
    for (const MlpModelSpec &s : inferenceZoo())
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<int64_t>
mlpLayerWeights(const MlpModelSpec &spec, size_t layer)
{
    IRONMAN_CHECK(layer + 1 < spec.dims.size(), "layer out of range");
    const size_t rows = spec.dims[layer + 1];
    const size_t cols = spec.dims[layer];
    const uint64_t half = uint64_t(1) << spec.fracBits; // 1.0 fixed pt
    Rng rng(spec.weightSeed * 0x9e3779b97f4a7c15ULL + layer);
    std::vector<int64_t> w(rows * cols);
    for (auto &v : w)
        v = int64_t(rng.nextBelow(2 * half)) - int64_t(half);
    return w;
}

std::vector<int64_t>
mlpPlainForward(const MlpModelSpec &spec, const std::vector<int64_t> &x)
{
    IRONMAN_CHECK(!x.empty() && x.size() % spec.inputDim() == 0,
                  "input is batch * inputDim values");
    const size_t batch = x.size() / spec.inputDim();
    std::vector<int64_t> cur = x;
    std::vector<int64_t> next;
    for (size_t l = 0; l + 1 < spec.dims.size(); ++l) {
        const size_t rows = spec.dims[l + 1], cols = spec.dims[l];
        const bool relu = l + 2 < spec.dims.size();
        const std::vector<int64_t> w = mlpLayerWeights(spec, l);
        next.assign(batch * rows, 0);
        for (size_t b = 0; b < batch; ++b)
            for (size_t r = 0; r < rows; ++r) {
                int64_t acc = 0;
                for (size_t c = 0; c < cols; ++c)
                    acc += w[r * cols + c] * cur[b * cols + c];
                acc >>= spec.fracBits;
                next[b * rows + r] = relu ? std::max<int64_t>(acc, 0)
                                          : acc;
            }
        std::swap(cur, next);
    }
    return cur;
}

std::vector<int64_t>
sampleMlpInput(const MlpModelSpec &spec, uint64_t seed, size_t batch)
{
    const uint64_t two = uint64_t(2) << spec.fracBits; // 2.0 fixed pt
    Rng rng(seed);
    std::vector<int64_t> x(batch * spec.inputDim());
    for (auto &v : x)
        v = int64_t(rng.nextBelow(2 * two)) - int64_t(two);
    return x;
}

int64_t
mlpTruncationErrorBound(const MlpModelSpec &spec)
{
    if (spec.fracBits == 0)
        return 0;
    int64_t e = 0;
    for (size_t l = 0; l + 1 < spec.dims.size(); ++l)
        e = e * int64_t(spec.dims[l]) + 1;
    return e;
}

} // namespace ironman::ppml
