#include "soc/memory.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>

#include "tlmlite/payload.hpp"

namespace vpdift::soc {

static_assert(std::is_same_v<dift::Tag, std::uint8_t> && dift::kBottomTag == 0,
              "a demand-zero byte plane must read as kBottomTag tags");

void Memory::Unmap::operator()(std::uint8_t* p) const {
  if (p) ::munmap(p, bytes);
}

Memory::Plane Memory::map_plane(std::size_t bytes) {
  if (bytes == 0) return Plane(nullptr, Unmap{0});
  // Anonymous private pages read as zero until first written. (calloc would
  // only do the same above glibc's adaptive mmap threshold.)
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Keep 4 KiB granularity even where transparent huge pages default to
  // "always": a first write must not zero-fill (and pin) a whole 2 MiB.
  ::madvise(p, bytes, MADV_NOHUGEPAGE);
  return Plane(static_cast<std::uint8_t*>(p), Unmap{bytes});
}

Memory::Memory(sysc::Simulation& sim, std::string name, std::size_t size,
               bool track_tags)
    : Module(sim, std::move(name)),
      size_(size),
      data_(map_plane(size)),
      tags_(map_plane(track_tags ? size : 0)) {
  if (tags_) shadow_.attach_bottom(tags_.get(), size_);
  tsock_.register_transport(
      [this](tlmlite::Payload& p, sysc::Time& d) { transport(p, d); });
}

namespace {
// MADV_DONTNEED on private anonymous memory: the next access of each page
// reads zero-fill again (Linux semantics), at the cost of the pages held.
void drop_pages(void* plane, std::size_t bytes) {
  if (plane && ::madvise(plane, bytes, MADV_DONTNEED) != 0)
    std::memset(plane, 0, bytes);
}
}  // namespace

void Memory::clear() {
  drop_pages(data_.get(), size_);
  if (tags_) {
    drop_pages(tags_.get(), size_);
    shadow_.clear();
  }
}

void Memory::load_image(const rvasm::Program& program, std::uint64_t ram_base) {
  for (const auto& seg : program.segments) {
    if (seg.bytes.empty()) continue;
    if (seg.base < ram_base || seg.end() > ram_base + size_)
      throw std::out_of_range(name_ + ": program segment outside RAM");
    std::memcpy(data_.get() + (seg.base - ram_base), seg.bytes.data(),
                seg.bytes.size());
  }
}

void Memory::classify(std::size_t offset, std::size_t length, dift::Tag tag) {
  if (!tags_) return;
  if (offset + length > size_)
    throw std::out_of_range(name_ + ": classify out of range");
  std::memset(tags_.get() + offset, tag, length);
  shadow_.on_classify(offset, length, tag);
}

dift::Tag Memory::tag_at(std::size_t offset) const {
  if (!tags_) return dift::kBottomTag;
  if (offset >= size_) throw std::out_of_range(name_ + ": tag_at out of range");
  return tags_[offset];
}

std::uint32_t Memory::read_u32(std::size_t offset) const {
  std::uint32_t v;
  std::memcpy(&v, data_.get() + offset, 4);
  return v;
}

void Memory::write_u32(std::size_t offset, std::uint32_t value) {
  std::memcpy(data_.get() + offset, &value, 4);
}

std::map<dift::Tag, std::size_t> Memory::tag_histogram() const {
  std::map<dift::Tag, std::size_t> h;
  for (std::size_t i = 0; tags_ && i < size_; ++i) ++h[tags_[i]];
  return h;
}

void Memory::transport(tlmlite::Payload& p, sysc::Time& delay) {
  if (p.address + p.length > size_) {
    p.response = tlmlite::Response::kAddressError;
    return;
  }
  const std::size_t off = p.address;
  if (p.is_read()) {
    std::memcpy(p.data, data_.get() + off, p.length);
    if (p.tainted()) {
      dift::Tag t = dift::kBottomTag;
      if (!tags_) {
        std::memset(p.tags, dift::kBottomTag, p.length);
        p.set_tag_summary(dift::kBottomTag);
      } else if (shadow_.uniform(off, p.length, &t)) {
        std::memset(p.tags, t, p.length);
        p.set_tag_summary(t);
        ++summary_hits_;
      } else {
        std::memcpy(p.tags, tags_.get() + off, p.length);
      }
    }
  } else {
    std::memcpy(data_.get() + off, p.data, p.length);
    if (p.tainted() && tags_) {
      std::memcpy(tags_.get() + off, p.tags, p.length);
      if (p.tags_uniform())
        shadow_.on_store(off, p.length, static_cast<dift::Tag>(p.tag_summary));
      else
        shadow_.on_store_bytes(off, p.length);
    }
  }
  delay += sysc::Time::ns(10);
  p.response = tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
