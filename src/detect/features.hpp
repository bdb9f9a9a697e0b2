// Telemetry featurization: MobiFlow records -> model input vectors.
//
// Categorical fields are one-hot encoded (paper §3.2: "all categorical
// variables within each sequence S is one-hot encoded"); identifier fields
// are turned into the *relational* indicators the attacks disturb (fresh
// RNTI, S-TMSI replayed across UE contexts, plaintext SUPI), since raw
// identifier values carry no distributional meaning. A sliding window of
// size N converts the record stream into model samples.
//
// One-hot indices are the vocab enum values themselves — encoding a record
// is a handful of array stores with no string lookups, and the batched
// entry points write rows straight into a caller-owned dl::Matrix so the
// agent -> detector hot path performs no per-record heap allocation.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "dl/tensor.hpp"
#include "mobiflow/record.hpp"
#include "mobiflow/trace.hpp"

namespace xsec::detect {

struct FeatureConfig {
  bool messages = true;     // message one-hot + direction + protocol
  bool identifiers = true;  // RNTI/TMSI/SUPI relational indicators
  bool state = true;        // cipher/integrity/establishment-cause one-hots
  bool timing = true;       // log-bucketed inter-arrival time
  /// Cell-load indicators: how many contexts are mid-authentication and
  /// how many setups arrived recently. These capture the paper's
  /// "multivariate anomalies" (Figure 2b): a DoS is joint pressure on
  /// message sequence AND device-parameter streams.
  bool load = true;
};

/// Streaming state the identifier features need (what "has been seen" so
/// far in the record stream). One context per trace pass.
class EncodeContext {
 public:
  void reset();

  std::set<std::uint16_t> seen_rntis;
  /// s_tmsi -> set of *currently active* CU ue ids that presented it.
  /// Ownership ends when the context is released, so benign sequential
  /// GUTI reuse does not look like the Blind DoS concurrent replay.
  std::map<std::uint64_t, std::set<std::uint64_t>> tmsi_owners;
  /// Reverse index for release-time cleanup: ue id -> tmsi it holds.
  std::map<std::uint64_t, std::uint64_t> ue_tmsi;
  std::int64_t last_timestamp_us = -1;
  /// UE contexts with an outstanding authentication challenge.
  std::set<std::uint64_t> pending_auth;
  /// Timestamps of recent RRCSetupRequests (pruned to the rate window).
  std::deque<std::int64_t> recent_setups;
};

class FeatureEncoder {
 public:
  explicit FeatureEncoder(FeatureConfig config = {});

  std::size_t dim() const { return dim_; }
  const FeatureConfig& config() const { return config_; }

  /// Encodes one record into out[0, dim()), updating the streaming
  /// context. `out` is overwritten (no pre-zeroing needed). This is the
  /// allocation-free hot path.
  void encode_into(const mobiflow::Record& record, EncodeContext& ctx,
                   float* out) const;

  /// Encodes one record, updating the streaming context.
  std::vector<float> encode(const mobiflow::Record& record,
                            EncodeContext& ctx) const;

  /// Encodes a batch of records into consecutive rows of a preallocated
  /// matrix starting at `first_row` (out must have dim() columns and at
  /// least first_row + records.size() rows).
  void encode_batch(std::span<const mobiflow::Record> records,
                    EncodeContext& ctx, dl::Matrix& out,
                    std::size_t first_row = 0) const;

  /// Encodes a whole trace in order (fresh context) into one matrix row
  /// per record.
  dl::Matrix encode_trace(const mobiflow::Trace& trace) const;

  /// Human-readable name of feature column `i` (for explanations).
  std::string feature_name(std::size_t i) const;

 private:
  FeatureConfig config_;
  std::vector<std::string> names_;
  std::size_t dim_ = 0;
};

/// A windowed dataset over one encoded trace. Features live in one
/// contiguous row-major matrix (a window of rows is therefore one
/// contiguous float span).
class WindowDataset {
 public:
  WindowDataset(dl::Matrix features, std::vector<bool> record_labels,
                std::size_t window_size);

  static WindowDataset from_trace(const mobiflow::Trace& trace,
                                  const FeatureEncoder& encoder,
                                  std::size_t window_size);

  /// Builds a combined dataset from several independent captures. Each
  /// capture is encoded with its own streaming context and windows never
  /// straddle capture boundaries (the concatenation gets a boundary marker
  /// internally).
  static WindowDataset from_traces(const std::vector<mobiflow::Trace>& traces,
                                   const FeatureEncoder& encoder,
                                   std::size_t window_size);

  std::size_t window_size() const { return window_; }
  std::size_t feature_dim() const { return dim_; }
  std::size_t record_count() const { return features_.rows(); }

  /// Autoencoder samples: flattened windows of N consecutive records.
  /// Row i covers records [i, i+N-1]. Empty if fewer than N records.
  dl::Matrix ae_matrix() const;
  std::size_t ae_sample_count() const;
  /// Window labels for AE rows (malicious iff any covered record is).
  std::vector<bool> ae_labels() const;

  /// LSTM samples: window [s, s+N-1] of features() predicting record s+N,
  /// one per start row s. Starts are ascending and consecutive within a
  /// capture.
  const std::vector<std::size_t>& lstm_starts() const { return lstm_starts_; }
  std::size_t lstm_sample_count() const;
  std::vector<bool> lstm_labels() const;

  const dl::Matrix& features() const { return features_; }
  const std::vector<bool>& record_labels() const { return labels_; }

 private:
  /// Window start indices valid for AE (window fits in one segment) and
  /// for LSTM (window + target fit).
  std::vector<std::size_t> ae_starts_;
  std::vector<std::size_t> lstm_starts_;
  void index_segment(std::size_t begin, std::size_t end);

  dl::Matrix features_;
  std::vector<bool> labels_;
  std::size_t window_;
  std::size_t dim_;
};

}  // namespace xsec::detect
