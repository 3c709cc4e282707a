#include "amr/io/snapshot.hpp"

#include <cstdio>
#include <memory>

#include "amr/common/check.hpp"

namespace amr::io {
namespace {

constexpr char kMagic[4] = {'A', 'M', 'R', 'S'};
// Envelope size outside the payload: magic + version + payload_size up
// front, checksum at the tail.
constexpr std::size_t kHeaderSize = 4 + sizeof(std::uint32_t) +
                                    sizeof(std::uint64_t);
constexpr std::size_t kTrailerSize = sizeof(std::uint64_t);

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void SnapshotWriter::append(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  payload_.insert(payload_.end(), p, p + n);
}

void SnapshotWriter::begin_section(std::string_view name) {
  AMR_CHECK_MSG(!in_section_, "snapshot sections cannot nest");
  in_section_ = true;
  const auto len = static_cast<std::uint32_t>(name.size());
  pod(len);
  append(name.data(), name.size());
  section_body_at_ = payload_.size();
  pod(std::uint64_t{0});  // body_len backpatched by end_section
}

void SnapshotWriter::end_section() {
  AMR_CHECK_MSG(in_section_, "end_section without begin_section");
  in_section_ = false;
  const std::uint64_t body_len =
      payload_.size() - section_body_at_ - sizeof(std::uint64_t);
  std::memcpy(payload_.data() + section_body_at_, &body_len,
              sizeof(body_len));
}

void SnapshotWriter::field(std::string_view s) {
  pod(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

std::vector<std::uint8_t> SnapshotWriter::finish() {
  AMR_CHECK_MSG(!in_section_, "finish with an open section");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload_.size() + kTrailerSize);
  out.insert(out.end(), kMagic, kMagic + 4);
  const std::uint32_t version = kSnapshotFormatVersion;
  const std::uint64_t size = payload_.size();
  const std::uint64_t checksum = fnv1a64(payload_.data(), payload_.size());
  const auto append_to = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  };
  append_to(&version, sizeof(version));
  append_to(&size, sizeof(size));
  append_to(payload_.data(), payload_.size());
  append_to(&checksum, sizeof(checksum));
  return out;
}

bool SnapshotWriter::write_file(const std::string& path) {
  const std::vector<std::uint8_t> bytes = finish();
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size())
    return false;
  return std::fflush(f.get()) == 0;
}

SnapshotReader::SnapshotReader(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw SnapshotError("cannot open snapshot file: " + path);
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  if (size < 0) throw SnapshotError("cannot stat snapshot file: " + path);
  std::fseek(f.get(), 0, SEEK_SET);
  bytes_.resize(static_cast<std::size_t>(size));
  if (!bytes_.empty() &&
      std::fread(bytes_.data(), 1, bytes_.size(), f.get()) != bytes_.size())
    throw SnapshotError("short read on snapshot file: " + path);
  validate_envelope();
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  validate_envelope();
}

void SnapshotReader::validate_envelope() {
  if (bytes_.size() < kHeaderSize + kTrailerSize)
    fail("file too small to be a snapshot");
  if (std::memcmp(bytes_.data(), kMagic, 4) != 0)
    fail("bad magic (not an AMRS snapshot)");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes_.data() + 4, sizeof(version));
  if (version != kSnapshotFormatVersion)
    fail("unsupported snapshot format version " + std::to_string(version));
  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes_.data() + 8, sizeof(payload_size));
  if (payload_size != bytes_.size() - kHeaderSize - kTrailerSize)
    fail("payload size does not match file size (truncated?)");
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, bytes_.data() + bytes_.size() - kTrailerSize,
              sizeof(checksum));
  const std::uint64_t actual =
      fnv1a64(bytes_.data() + kHeaderSize,
              static_cast<std::size_t>(payload_size));
  if (checksum != actual) fail("checksum mismatch (corrupt snapshot)");
  at_ = kHeaderSize;
  payload_end_ = kHeaderSize + static_cast<std::size_t>(payload_size);
}

void SnapshotReader::take(void* out, std::size_t n) {
  const std::size_t end = in_section_ ? section_end_ : payload_end_;
  if (n > end - at_) fail("read past end (truncated section)");
  // An empty vector's data() may be null, and memcpy forbids null even
  // for zero bytes.
  if (n == 0) return;
  std::memcpy(out, bytes_.data() + at_, n);
  at_ += n;
}

void SnapshotReader::check_available(std::uint64_t count,
                                     std::size_t elem_size) const {
  const std::size_t end = in_section_ ? section_end_ : payload_end_;
  const std::uint64_t remaining = end - at_;
  if (count > remaining / elem_size)
    fail("vector length exceeds remaining bytes (corrupt snapshot)");
}

std::string SnapshotReader::str() {
  const auto len = pod<std::uint32_t>();
  check_available(len, 1);
  std::string s(len, '\0');
  take(s.data(), len);
  return s;
}

std::string SnapshotReader::peek_section() {
  AMR_CHECK_MSG(!in_section_, "peek_section inside a section");
  if (at_ >= payload_end_) return {};
  const std::size_t saved = at_;
  const std::string name = str();
  at_ = saved;
  return name;
}

void SnapshotReader::begin_section(std::string_view name) {
  AMR_CHECK_MSG(!in_section_, "snapshot sections cannot nest");
  if (at_ >= payload_end_)
    fail("expected section '" + std::string(name) + "', got end of file");
  const std::string actual = str();
  if (actual != name)
    fail("expected section '" + std::string(name) + "', found '" + actual +
         "'");
  const auto body_len = pod<std::uint64_t>();
  if (body_len > payload_end_ - at_)
    fail("section '" + actual + "' overruns the payload (truncated?)");
  section_end_ = at_ + static_cast<std::size_t>(body_len);
  in_section_ = true;
}

void SnapshotReader::end_section() {
  AMR_CHECK_MSG(in_section_, "end_section without begin_section");
  if (at_ != section_end_) fail("section body not fully consumed");
  in_section_ = false;
}

void SnapshotReader::skip_section() {
  AMR_CHECK_MSG(!in_section_, "skip_section inside a section");
  if (at_ >= payload_end_) fail("skip_section at end of file");
  (void)str();
  const auto body_len = pod<std::uint64_t>();
  if (body_len > payload_end_ - at_)
    fail("skipped section overruns the payload (truncated?)");
  at_ += static_cast<std::size_t>(body_len);
}

void SnapshotReader::fail(const std::string& why) const {
  throw SnapshotError("snapshot: " + why);
}

}  // namespace amr::io
