#include "mobiflow/record.hpp"

#include <cstdio>

#include "common/strings.hpp"

namespace xsec::mobiflow {

namespace {

// Wire field tags. Tag 0 terminates a record; numeric/enum fields are one
// varint, string fields are varint length + raw bytes. Optional fields
// (supi/suci) are omitted when empty; everything else is required.
enum Tag : std::uint8_t {
  kEnd = 0,
  kTs = 1,
  kGnb = 2,
  kCell = 3,
  kUe = 4,
  kProto = 5,
  kMsg = 6,
  kDir = 7,
  kRnti = 8,
  kSTmsi = 9,
  kSupi = 10,
  kSuci = 11,
  kCipher = 12,
  kIntegrity = 13,
  kCause = 14,
};

constexpr std::uint32_t bit(std::uint8_t tag) { return 1u << tag; }
constexpr std::uint32_t kRequiredMask =
    bit(kTs) | bit(kGnb) | bit(kCell) | bit(kUe) | bit(kProto) | bit(kMsg) |
    bit(kDir) | bit(kRnti) | bit(kSTmsi) | bit(kCipher) | bit(kIntegrity) |
    bit(kCause);

// ZigZag so negative timestamps stay small varints.
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint_field(ByteWriter& w, Tag tag, std::uint64_t value) {
  w.u8(tag);
  w.varint(value);
}

void put_str_field(ByteWriter& w, Tag tag, const std::string& value) {
  w.u8(tag);
  w.varint(value.size());
  w.raw(reinterpret_cast<const std::uint8_t*>(value.data()), value.size());
}

Result<std::string> read_str_field(ByteReader& r) {
  auto len = r.varint();
  if (!len) return len.error();
  auto bytes = r.raw(len.value());
  if (!bytes) return bytes.error();
  return std::string(bytes.value().begin(), bytes.value().end());
}

/// Range-checks a decoded varint against an enum's dense value count.
template <typename E>
Result<E> checked_enum(std::uint64_t raw, std::size_t count,
                       const char* what) {
  if (raw >= count)
    return Error::make("malformed",
                       std::string(what) + " enum value out of range");
  return static_cast<E>(raw);
}

}  // namespace

void Record::encode(ByteWriter& w) const {
  put_varint_field(w, kTs, zigzag(timestamp_us));
  put_varint_field(w, kGnb, gnb_id);
  put_varint_field(w, kCell, cell);
  put_varint_field(w, kUe, ue_id);
  put_varint_field(w, kProto, static_cast<std::uint8_t>(protocol));
  put_varint_field(w, kMsg, static_cast<std::uint8_t>(msg));
  put_varint_field(w, kDir, static_cast<std::uint8_t>(direction));
  put_varint_field(w, kRnti, rnti);
  put_varint_field(w, kSTmsi, s_tmsi);
  if (!supi_plain.empty()) put_str_field(w, kSupi, supi_plain);
  if (!suci.empty()) put_str_field(w, kSuci, suci);
  put_varint_field(w, kCipher, static_cast<std::uint8_t>(cipher_alg));
  put_varint_field(w, kIntegrity, static_cast<std::uint8_t>(integrity_alg));
  put_varint_field(w, kCause, static_cast<std::uint8_t>(establishment_cause));
  w.u8(kEnd);
}

Result<Record> Record::decode(ByteReader& r) {
  Record rec;
  std::uint32_t seen = 0;
  for (;;) {
    auto tag = r.u8();
    if (!tag) return tag.error();
    if (tag.value() == kEnd) break;
    if (tag.value() > kCause)
      return Error::make("malformed", "unknown record field tag");
    if (tag.value() == kSupi || tag.value() == kSuci) {
      auto text = read_str_field(r);
      if (!text) return text.error();
      (tag.value() == kSupi ? rec.supi_plain : rec.suci) =
          std::move(text).value();
      seen |= bit(tag.value());
      continue;
    }
    auto raw = r.varint();
    if (!raw) return raw.error();
    std::uint64_t v = raw.value();
    switch (tag.value()) {
      case kTs: rec.timestamp_us = unzigzag(v); break;
      case kGnb: rec.gnb_id = static_cast<std::uint32_t>(v); break;
      case kCell: rec.cell = static_cast<std::uint16_t>(v); break;
      case kUe: rec.ue_id = v; break;
      case kProto: {
        auto e = checked_enum<vocab::Protocol>(v, 3, "protocol");
        if (!e) return e.error();
        rec.protocol = e.value();
        break;
      }
      case kMsg: {
        auto e =
            checked_enum<vocab::MsgType>(v, vocab::kMsgTypeCount, "message");
        if (!e) return e.error();
        rec.msg = e.value();
        break;
      }
      case kDir: {
        auto e = checked_enum<vocab::Direction>(v, 2, "direction");
        if (!e) return e.error();
        rec.direction = e.value();
        break;
      }
      case kRnti: rec.rnti = static_cast<std::uint16_t>(v); break;
      case kSTmsi: rec.s_tmsi = v; break;
      case kCipher: {
        auto e = checked_enum<vocab::CipherAlg>(v, vocab::kCipherAlgCount,
                                                "cipher");
        if (!e) return e.error();
        rec.cipher_alg = e.value();
        break;
      }
      case kIntegrity: {
        auto e = checked_enum<vocab::IntegrityAlg>(
            v, vocab::kIntegrityAlgCount, "integrity");
        if (!e) return e.error();
        rec.integrity_alg = e.value();
        break;
      }
      case kCause: {
        auto e = checked_enum<vocab::EstablishmentCause>(
            v, vocab::kEstablishmentCauseCount, "establishment cause");
        if (!e) return e.error();
        rec.establishment_cause = e.value();
        break;
      }
      default:
        return Error::make("malformed", "unknown record field tag");
    }
    seen |= bit(tag.value());
  }
  if ((seen & kRequiredMask) != kRequiredMask)
    return Error::make("truncated", "record missing required fields");
  return rec;
}

Bytes Record::to_kv_bytes() const {
  ByteWriter w;
  encode(w);
  return w.take();
}

Result<Record> Record::from_kv_bytes(std::span<const std::uint8_t> wire) {
  ByteReader r(wire.data(), wire.size());
  auto rec = decode(r);
  if (!rec) return rec.error();
  if (!r.exhausted())
    return Error::make("malformed", "trailing bytes after record");
  return rec;
}

std::string Record::summary() const {
  char rnti_buf[8];
  std::snprintf(rnti_buf, sizeof(rnti_buf), "0x%04X", rnti);
  std::string out = "t=" + std::to_string(timestamp_us) + "us ";
  out += direction_name();
  out += " ";
  out += protocol_name();
  out += ":";
  out += msg_name();
  out += " rnti=";
  out += rnti_buf;
  if (s_tmsi != 0) {
    char tmsi_buf[16];
    std::snprintf(tmsi_buf, sizeof(tmsi_buf), "0x%08llX",
                  static_cast<unsigned long long>(s_tmsi & 0xffffffff));
    out += " tmsi=";
    out += tmsi_buf;
  }
  if (!supi_plain.empty()) out += " supi=" + supi_plain + " (PLAINTEXT)";
  if (!suci.empty()) out += " suci=" + suci;
  if (cipher_alg != vocab::CipherAlg::kNone) {
    out += " cipher=";
    out += cipher_name();
  }
  if (integrity_alg != vocab::IntegrityAlg::kNone) {
    out += " integrity=";
    out += integrity_name();
  }
  if (establishment_cause != vocab::EstablishmentCause::kNone) {
    out += " cause=";
    out += cause_name();
  }
  return out;
}

std::string record_csv_header() {
  return "ts_us,gnb,cell,ue,proto,msg,dir,rnti,s_tmsi,supi,suci,cipher_alg,"
         "integrity_alg,est_cause";
}

std::string record_csv_row(const Record& r) {
  std::vector<std::string> cells = {
      std::to_string(r.timestamp_us), std::to_string(r.gnb_id),
      std::to_string(r.cell),         std::to_string(r.ue_id),
      std::string(r.protocol_name()), std::string(r.msg_name()),
      std::string(r.direction_name()), std::to_string(r.rnti),
      std::to_string(r.s_tmsi),       r.supi_plain,
      r.suci,                         std::string(r.cipher_name()),
      std::string(r.integrity_name()), std::string(r.cause_name())};
  return join(cells, ",");
}

}  // namespace xsec::mobiflow
