#include "storage/clob_pager.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/wal.hpp"

namespace hxrc::storage {

namespace {

constexpr std::uint32_t kFrameMagic = 0x48584350;  // "HXCP"
constexpr std::size_t kHeaderBytes = 12;           // magic + length + crc

void put_u32(char* out, std::uint32_t v) noexcept {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t get_u32(const char* in) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[3])) << 24);
}

void pwrite_all(int fd, const char* data, std::size_t size, std::uint64_t offset,
                const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ClobPagerError("pwrite '" + path + "': " + std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void pread_all(int fd, char* data, std::size_t size, std::uint64_t offset,
               const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ClobPagerError("pread '" + path + "': " + std::strerror(errno));
    }
    if (n == 0) throw ClobPagerError("short read from '" + path + "'");
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

}  // namespace

PagedClobFile::PagedClobFile(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw ClobPagerError("open '" + path_ + "': " + std::strerror(errno));
  }
}

PagedClobFile::~PagedClobFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint32_t PagedClobFile::write_segment(std::string_view payload) {
  char header[kHeaderBytes];
  put_u32(header, kFrameMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(payload.size()));
  put_u32(header + 8, crc32c(0, payload.data(), payload.size()));
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t at = end_;
  pwrite_all(fd_, header, kHeaderBytes, at, path_);
  pwrite_all(fd_, payload.data(), payload.size(), at + kHeaderBytes, path_);
  end_ = at + kHeaderBytes + payload.size();
  segments_.push_back(
      SegmentLoc{at, static_cast<std::uint32_t>(payload.size())});
  return static_cast<std::uint32_t>(segments_.size() - 1);
}

std::string PagedClobFile::read_segment(std::uint32_t segment) {
  SegmentLoc loc;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (segment >= segments_.size()) {
      throw ClobPagerError("unknown clob segment " + std::to_string(segment));
    }
    loc = segments_[segment];
  }
  char header[kHeaderBytes];
  pread_all(fd_, header, kHeaderBytes, loc.offset, path_);
  if (get_u32(header) != kFrameMagic || get_u32(header + 4) != loc.length) {
    throw ClobPagerError("corrupt clob segment frame in '" + path_ + "'");
  }
  std::string payload(loc.length, '\0');
  pread_all(fd_, payload.data(), payload.size(), loc.offset + kHeaderBytes, path_);
  if (crc32c(0, payload.data(), payload.size()) != get_u32(header + 8)) {
    throw ClobPagerError("clob segment checksum mismatch in '" + path_ + "'");
  }
  return payload;
}

std::size_t PagedClobFile::segment_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

}  // namespace hxrc::storage
