#include "detect/features.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace xsec::detect {

namespace vocab = mobiflow::vocab;
using vocab::MsgType;

void EncodeContext::reset() {
  seen_rntis.clear();
  tmsi_owners.clear();
  ue_tmsi.clear();
  last_timestamp_us = -1;
  pending_auth.clear();
  recent_setups.clear();
}

namespace {
constexpr std::size_t kTimingBuckets = 6;
constexpr std::size_t kLoadBuckets = 6;
constexpr std::int64_t kSetupRateWindowUs = 100'000;  // 100ms

std::size_t load_bucket(std::size_t count) {
  // 0, 1, 2, 3-4, 5-8, 9+
  if (count == 0) return 0;
  if (count == 1) return 1;
  if (count == 2) return 2;
  if (count <= 4) return 3;
  if (count <= 8) return 4;
  return 5;
}

std::size_t timing_bucket(std::int64_t delta_us) {
  // log10 buckets: <100us, <1ms, <10ms, <100ms, <1s, >=1s
  if (delta_us < 100) return 0;
  if (delta_us < 1'000) return 1;
  if (delta_us < 10'000) return 2;
  if (delta_us < 100'000) return 3;
  if (delta_us < 1'000'000) return 4;
  return 5;
}
}  // namespace

FeatureEncoder::FeatureEncoder(FeatureConfig config) : config_(config) {
  if (config_.messages) {
    // Column index == MsgType value: the explicit unknown bucket first,
    // then RRC and NAS message types in vocab order.
    names_.push_back("msg=unknown");
    for (std::size_t m = 1; m < vocab::kMsgTypeCount; ++m) {
      auto type = static_cast<MsgType>(m);
      std::string proto(vocab::to_name(vocab::protocol_of(type)));
      names_.push_back("msg=" + proto + ":" +
                       std::string(vocab::to_name(type)));
    }
    names_.push_back("dir=UL");
  }
  if (config_.identifiers) {
    names_.push_back("id.rnti_new");
    names_.push_back("id.tmsi_present");
    names_.push_back("id.tmsi_replayed_other_ue");
    names_.push_back("id.supi_plaintext");
    names_.push_back("id.suci_null_scheme");
    names_.push_back("id.release_incomplete");
  }
  if (config_.state) {
    // Column index == enum value within each block (0 = not-yet-known).
    names_.push_back("state.cipher_unknown");
    for (std::size_t a = 1; a < vocab::kCipherAlgCount; ++a)
      names_.push_back(
          "state.cipher=" +
          std::string(vocab::to_name(static_cast<vocab::CipherAlg>(a))));
    names_.push_back("state.integrity_unknown");
    for (std::size_t a = 1; a < vocab::kIntegrityAlgCount; ++a)
      names_.push_back(
          "state.integrity=" +
          std::string(vocab::to_name(static_cast<vocab::IntegrityAlg>(a))));
    names_.push_back("state.cause_unknown");
    for (std::size_t c = 1; c < vocab::kEstablishmentCauseCount; ++c)
      names_.push_back(
          "state.cause=" +
          std::string(
              vocab::to_name(static_cast<vocab::EstablishmentCause>(c))));
  }
  if (config_.timing) {
    for (std::size_t b = 0; b < kTimingBuckets; ++b)
      names_.push_back("dt.bucket" + std::to_string(b));
  }
  if (config_.load) {
    for (std::size_t b = 0; b < kLoadBuckets; ++b)
      names_.push_back("load.pending_auth" + std::to_string(b));
    for (std::size_t b = 0; b < kLoadBuckets; ++b)
      names_.push_back("load.setup_rate" + std::to_string(b));
  }
  dim_ = names_.size();
}

void FeatureEncoder::encode_into(const mobiflow::Record& record,
                                 EncodeContext& ctx, float* out) const {
  std::fill(out, out + dim_, 0.0f);
  std::size_t base = 0;

  if (config_.messages) {
    // One-hot by enum value; out-of-range values (possible only via a
    // corrupted cast) fall into the explicit unknown column 0 instead of
    // silently encoding as all-zeros.
    auto m = static_cast<std::size_t>(record.msg);
    out[m < vocab::kMsgTypeCount ? m : 0] = 1.0f;
    base = vocab::kMsgTypeCount;
    if (record.direction == vocab::Direction::kUl) out[base] = 1.0f;
    base += 1;
  }

  if (config_.identifiers) {
    bool rnti_new =
        record.rnti != 0 && !ctx.seen_rntis.count(record.rnti);
    if (record.rnti != 0) ctx.seen_rntis.insert(record.rnti);
    out[base + 0] = rnti_new ? 1.0f : 0.0f;

    if (record.s_tmsi != 0) {
      out[base + 1] = 1.0f;
      // Ownership is established by UPLINK presentations only; broadcast
      // paging and downlink allocations must not create owners.
      if (record.direction == vocab::Direction::kUl) {
        auto& owners = ctx.tmsi_owners[record.s_tmsi];
        owners.insert(record.ue_id);
        ctx.ue_tmsi[record.ue_id] = record.s_tmsi;
        // Replay = the identifier is simultaneously live in more than one
        // context (fires on every record of every involved context while
        // the conflict persists).
        out[base + 2] = owners.size() >= 2 ? 1.0f : 0.0f;
      }
    }
    if (record.msg == MsgType::kRrcRelease) {
      auto held = ctx.ue_tmsi.find(record.ue_id);
      if (held != ctx.ue_tmsi.end()) {
        auto owners_it = ctx.tmsi_owners.find(held->second);
        if (owners_it != ctx.tmsi_owners.end())
          owners_it->second.erase(record.ue_id);
        ctx.ue_tmsi.erase(held);
      }
    }
    if (!record.supi_plain.empty()) out[base + 3] = 1.0f;
    // A null-scheme SUCI is detectable from the identity string itself.
    if (!record.suci.empty() && record.suci.find("-0-") != std::string::npos)
      out[base + 4] = 1.0f;
    // A context torn down before it ever reached a security context: the
    // footprint of garbage-collected half-open (DoS) connections.
    if (record.msg == MsgType::kRrcRelease &&
        record.cipher_alg == vocab::CipherAlg::kNone && record.s_tmsi == 0)
      out[base + 5] = 1.0f;
    base += 6;
  }

  if (config_.state) {
    // Each block's column offset is the enum value itself; value 0 (kNone)
    // is the "unknown / not yet negotiated" column.
    out[base + static_cast<std::size_t>(record.cipher_alg)] = 1.0f;
    base += vocab::kCipherAlgCount;
    out[base + static_cast<std::size_t>(record.integrity_alg)] = 1.0f;
    base += vocab::kIntegrityAlgCount;
    out[base + static_cast<std::size_t>(record.establishment_cause)] = 1.0f;
    base += vocab::kEstablishmentCauseCount;
  }

  if (config_.timing) {
    // The first record of a stream has no predecessor; use a typical
    // inter-session gap so stream starts don't land in the rarest bucket
    // (which would make the first window of every capture an outlier).
    std::int64_t delta =
        ctx.last_timestamp_us < 0 ? 20'000
                                  : record.timestamp_us - ctx.last_timestamp_us;
    ctx.last_timestamp_us = record.timestamp_us;
    out[base + timing_bucket(delta)] = 1.0f;
    base += kTimingBuckets;
  }

  if (config_.load) {
    // Update the load trackers from this record.
    switch (record.msg) {
      case MsgType::kAuthenticationRequest:
        ctx.pending_auth.insert(record.ue_id);
        break;
      case MsgType::kAuthenticationResponse:
      case MsgType::kAuthenticationFailure:
      case MsgType::kAuthenticationReject:
      case MsgType::kRrcRelease:
        ctx.pending_auth.erase(record.ue_id);
        break;
      default:
        break;
    }
    if (record.msg == MsgType::kRrcSetupRequest)
      ctx.recent_setups.push_back(record.timestamp_us);
    while (!ctx.recent_setups.empty() &&
           ctx.recent_setups.front() <
               record.timestamp_us - kSetupRateWindowUs)
      ctx.recent_setups.pop_front();

    // Emit the buckets only on connection-establishment messages: those
    // are the records a storm consists of, so the anomaly stays attached
    // to the attack records instead of every bystander during the storm.
    bool establishment = record.msg == MsgType::kRrcSetupRequest ||
                         record.msg == MsgType::kRrcSetup ||
                         record.msg == MsgType::kRrcSetupComplete ||
                         record.msg == MsgType::kRegistrationRequest ||
                         record.msg == MsgType::kAuthenticationRequest;
    if (establishment) {
      out[base + load_bucket(ctx.pending_auth.size())] = 1.0f;
      out[base + kLoadBuckets + load_bucket(ctx.recent_setups.size())] = 1.0f;
    }
    base += 2 * kLoadBuckets;
  }

  assert(base == dim_);
}

std::vector<float> FeatureEncoder::encode(const mobiflow::Record& record,
                                          EncodeContext& ctx) const {
  std::vector<float> out(dim_);
  encode_into(record, ctx, out.data());
  return out;
}

void FeatureEncoder::encode_batch(std::span<const mobiflow::Record> records,
                                  EncodeContext& ctx, dl::Matrix& out,
                                  std::size_t first_row) const {
  assert(out.cols() == dim_);
  assert(first_row + records.size() <= out.rows());
  for (std::size_t i = 0; i < records.size(); ++i)
    encode_into(records[i], ctx, out.row(first_row + i));
}

dl::Matrix FeatureEncoder::encode_trace(const mobiflow::Trace& trace) const {
  EncodeContext ctx;
  dl::Matrix out(trace.size(), dim_);
  std::size_t row = 0;
  for (const auto& entry : trace.entries())
    encode_into(entry.record, ctx, out.row(row++));
  return out;
}

std::string FeatureEncoder::feature_name(std::size_t i) const {
  assert(i < names_.size());
  return names_[i];
}

WindowDataset::WindowDataset(dl::Matrix features,
                             std::vector<bool> record_labels,
                             std::size_t window_size)
    : features_(std::move(features)),
      labels_(std::move(record_labels)),
      window_(window_size),
      dim_(features_.cols()) {
  assert(features_.rows() == labels_.size());
  assert(window_ > 0);
  index_segment(0, features_.rows());
}

void WindowDataset::index_segment(std::size_t begin, std::size_t end) {
  if (end - begin >= window_)
    for (std::size_t s = begin; s + window_ <= end; ++s)
      ae_starts_.push_back(s);
  if (end - begin > window_)
    for (std::size_t s = begin; s + window_ < end; ++s)
      lstm_starts_.push_back(s);
}

WindowDataset WindowDataset::from_trace(const mobiflow::Trace& trace,
                                        const FeatureEncoder& encoder,
                                        std::size_t window_size) {
  std::vector<bool> labels;
  labels.reserve(trace.size());
  for (const auto& entry : trace.entries()) labels.push_back(entry.malicious);
  return WindowDataset(encoder.encode_trace(trace), std::move(labels),
                       window_size);
}

WindowDataset WindowDataset::from_traces(
    const std::vector<mobiflow::Trace>& traces, const FeatureEncoder& encoder,
    std::size_t window_size) {
  std::size_t total = 0;
  for (const auto& trace : traces) total += trace.size();
  dl::Matrix features(total, encoder.dim());
  std::vector<bool> labels;
  labels.reserve(total);
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  std::size_t row = 0;
  for (const auto& trace : traces) {
    std::size_t begin = row;
    EncodeContext ctx;  // each capture gets a fresh streaming context
    for (const auto& entry : trace.entries()) {
      encoder.encode_into(entry.record, ctx, features.row(row++));
      labels.push_back(entry.malicious);
    }
    segments.emplace_back(begin, row);
  }
  WindowDataset dataset(std::move(features), std::move(labels), window_size);
  // Re-index: windows must not straddle capture boundaries.
  dataset.ae_starts_.clear();
  dataset.lstm_starts_.clear();
  for (const auto& [begin, end] : segments)
    dataset.index_segment(begin, end);
  return dataset;
}

std::size_t WindowDataset::ae_sample_count() const {
  return ae_starts_.size();
}

dl::Matrix WindowDataset::ae_matrix() const {
  dl::Matrix out(ae_starts_.size(), window_ * dim_);
  // A window of consecutive rows is contiguous in the feature matrix, so
  // each AE sample is a single block copy.
  for (std::size_t i = 0; i < ae_starts_.size(); ++i)
    std::memcpy(out.row(i), features_.row(ae_starts_[i]),
                window_ * dim_ * sizeof(float));
  return out;
}

std::vector<bool> WindowDataset::ae_labels() const {
  std::vector<bool> out(ae_starts_.size(), false);
  for (std::size_t i = 0; i < ae_starts_.size(); ++i) {
    std::size_t s = ae_starts_[i];
    for (std::size_t t = 0; t < window_; ++t)
      if (labels_[s + t]) {
        out[i] = true;
        break;
      }
  }
  return out;
}

std::size_t WindowDataset::lstm_sample_count() const {
  return lstm_starts_.size();
}

std::vector<bool> WindowDataset::lstm_labels() const {
  std::vector<bool> out(lstm_starts_.size(), false);
  for (std::size_t i = 0; i < lstm_starts_.size(); ++i) {
    std::size_t s = lstm_starts_[i];
    for (std::size_t t = 0; t <= window_; ++t)
      if (labels_[s + t]) {
        out[i] = true;
        break;
      }
  }
  return out;
}

}  // namespace xsec::detect
