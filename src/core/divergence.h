// Client local divergence rate (paper §I / §IV-B): the average distance
// between a client's sample encodings and their assigned KMeans prototypes.
// Small divergence = tight local clusters = a trustworthy update; the server
// turns these into aggregation weights.
#pragma once

#include "ssl/method.h"

namespace calibre::core {

// Mean encoding-to-prototype distance over `inputs` using `k` prototypes.
float client_divergence(ssl::SslMethod& method, const tensor::Tensor& inputs,
                        int k, rng::Generator& gen);

// Direction of the divergence-based re-weighting:
//  * kInverse      — trust tight clusters: w ~ 1 / (divergence + eps).
//  * kProportional — prioritise struggling clients (fairness-first, in the
//                    spirit of q-FFL): w ~ divergence + eps.
enum class DivergenceMode { kInverse, kProportional };

// One update's unnormalised aggregation weight from its divergence, scaled by
// its sample weight: w / (d + 1e-3) or w * (d + 1e-3). The fold normalises
// by the running total (fl::WeightedStreamingAggregator::finish()), so
// all-equal divergences reduce to FedAvg weights.
float divergence_weight(float sample_weight, float divergence,
                        DivergenceMode mode);

}  // namespace calibre::core
