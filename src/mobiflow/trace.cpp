#include "mobiflow/trace.hpp"

#include <algorithm>
#include <fstream>

namespace xsec::mobiflow {

namespace {
// v2: compact tag+varint record encoding (v1 carried string KV pairs).
constexpr std::uint32_t kMagic = 0x4D465432;  // "MFT2"
}

void Trace::append(const Trace& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

std::size_t Trace::malicious_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (e.malicious) ++n;
  return n;
}

Trace Trace::filter_ue(std::uint64_t ue_id) const {
  Trace out;
  for (const auto& e : entries_)
    if (e.record.ue_id == ue_id) out.entries_.push_back(e);
  return out;
}

Bytes Trace::serialize() const {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    w.boolean(e.malicious);
    e.record.encode(w);
  }
  return w.take();
}

Result<Trace> Trace::deserialize(const Bytes& wire) {
  ByteReader r(wire);
  auto magic = r.u32();
  if (!magic) return magic.error();
  if (magic.value() != kMagic)
    return Error::make("malformed", "bad trace magic");
  auto count = r.u32();
  if (!count) return count.error();
  Trace trace;
  // The count is untrusted (spill files, incident reports): every entry
  // takes at least one byte, so never reserve more than the bytes left.
  trace.entries_.reserve(std::min<std::size_t>(count.value(), r.remaining()));
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto malicious = r.boolean();
    if (!malicious) return malicious.error();
    auto record = Record::decode(r);
    if (!record) return record.error();
    trace.entries_.push_back({std::move(record).value(), malicious.value()});
  }
  return trace;
}

Status Trace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error::make("io", "cannot open " + path);
  Bytes wire = serialize();
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<std::streamsize>(wire.size()));
  if (!out) return Error::make("io", "write failed for " + path);
  return Status::ok_status();
}

Result<Trace> Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::make("io", "cannot open " + path);
  Bytes wire((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return deserialize(wire);
}

std::string Trace::to_csv() const {
  std::string out = record_csv_header() + ",malicious\n";
  for (const auto& e : entries_) {
    out += record_csv_row(e.record);
    out += e.malicious ? ",1\n" : ",0\n";
  }
  return out;
}

}  // namespace xsec::mobiflow
