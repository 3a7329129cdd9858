// Umbrella header: the full public API of the fedsparse library.
//
// Reproduction of "Adaptive Gradient Sparsification for Efficient Federated
// Learning: An Online Learning Approach" (Han, Wang, Leung — ICDCS 2020).
//
//  * sparsify/   — FAB-top-k (the paper's GS contribution) and baselines
//  * online/     — Algorithms 2 & 3 for adapting k, and baselines
//  * fl/         — the federated simulation with the paper's timing model
//  * nn/, data/, tensor/, util/ — substrates
//  * core/       — FederatedTrainer, the turnkey entry point
#pragma once

#include "core/trainer.h"
#include "data/dataset.h"
#include "data/minibatch.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/faults.h"
#include "fl/metrics.h"
#include "fl/network.h"
#include "fl/replay.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "nn/sequential.h"
#include "online/continuous_bandit.h"
#include "online/controller.h"
#include "online/estimator.h"
#include "online/exp3.h"
#include "online/extended_sign_ogd.h"
#include "online/factory.h"
#include "online/regret.h"
#include "online/rounding.h"
#include "online/sign_ogd.h"
#include "online/value_based.h"
#include "sparsify/accumulator.h"
#include "sparsify/fab_topk.h"
#include "sparsify/method.h"
#include "sparsify/sparse_vector.h"
#include "sparsify/topk.h"
#include "sparsify/validate.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
