/// \file
/// Per-query serving policy (DESIGN.md §4.3).
///
/// A QueryPolicy rides on every PortQuery: how accurate its answer must be
/// (AccuracyTier), which backend it prefers (BackendPref), how long it was
/// willing to wait (deadline_us), and whether it asked to be hedged. Every
/// query is answered exactly on the snapshot's one factor, which meets any
/// tier's error bound, so tier, backend and hedge are accepted (and
/// range-checked on the wire) but select no code. Only the deadline
/// changes an outcome.
///
/// Determinism: nothing in this header reads a clock. Deadline expiry is a
/// pure function of (policy.deadline_us, AnswerContext::queue_wait_us), so
/// answers stay bit-identical at any thread count (§4.3's argument).
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace er {

/// How accurate a query's answer must be. Every tier is answered exactly;
/// the tier labels the per-tier metrics (er_policy_*{tier=...}).
enum class AccuracyTier : std::uint8_t {
  kExact = 0,  ///< the default
  kApprox = 1,
  kFast = 2,
};

/// Which backend a query names. Accepted for wire compatibility; every
/// value is answered on the snapshot's one factor.
enum class BackendPref : std::uint8_t {
  kAuto = 0,
  kSharded = 1,
  kMonolithic = 2,
  kLocalApprox = 3,
};

/// Per-query serving policy. The default value is the no-policy policy:
/// no deadline, exact tier, auto backend, no hedging.
struct QueryPolicy {
  /// Queueing budget in microseconds; 0 = none. A query whose deadline is
  /// <= the batch's AnswerContext::queue_wait_us reports kDeadlineMiss
  /// (answer NaN) without being evaluated — see §4.3 for why expiry is an
  /// explicit input rather than a clock read.
  std::uint32_t deadline_us = 0;
  AccuracyTier accuracy_tier = AccuracyTier::kExact;
  BackendPref backend_pref = BackendPref::kAuto;
  /// Accepted for wire compatibility; selects nothing.
  bool hedge = false;
};

/// Per-query outcome reported through AnswerContext::statuses.
enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kInvalid = 1,       ///< unmapped / eliminated endpoint (answer NaN)
  kDeadlineMiss = 2,  ///< deadline expired before evaluation (answer NaN)
};

const char* to_string(AccuracyTier tier);
const char* to_string(BackendPref pref);
const char* to_string(QueryStatus status);

}  // namespace er
