// Main RAM with an optional per-byte tag plane.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "dift/shadow.hpp"
#include "dift/tag.hpp"
#include "rvasm/program.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

/// Byte-addressable RAM. In the DIFT build every byte carries a dift::Tag in
/// a parallel plane; the plain VP allocates no tag storage at all.
///
/// Both planes are demand-zero anonymous mappings: construction touches no
/// page, a page costs host memory only once the firmware (or a restore)
/// writes it, and clear() hands every page back. Zero data and kBottomTag
/// (== 0) tags are therefore free. The plane pointers are fixed for the
/// object's lifetime, so DMI pointers taken from data()/tags() stay valid.
class Memory : public sysc::Module {
 public:
  Memory(sysc::Simulation& sim, std::string name, std::size_t size, bool track_tags);
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  tlmlite::TargetSocket& socket() { return tsock_; }

  std::uint8_t* data() { return data_.get(); }
  dift::Tag* tags() { return tags_.get(); }
  std::size_t size() const { return size_; }
  bool tracks_tags() const { return tags_ != nullptr; }

  /// Zeroes both planes (data 0, tags kBottomTag) by dropping their pages,
  /// and resets the shadow summary to all-bottom (bumping its generation).
  void clear();

  /// Copies all program segments into RAM. Segment addresses are absolute
  /// bus addresses; `ram_base` is this memory's mapping base.
  void load_image(const rvasm::Program& program, std::uint64_t ram_base);

  /// Tags [offset, offset+length) (no-op when tags are not tracked).
  void classify(std::size_t offset, std::size_t length, dift::Tag tag);
  /// Tag at `offset` (kBottomTag when untracked).
  dift::Tag tag_at(std::size_t offset) const;

  /// Direct read/write helpers for tests and host-side tooling.
  std::uint32_t read_u32(std::size_t offset) const;
  void write_u32(std::size_t offset, std::uint32_t value);

  /// Taint map statistics: bytes per security class (policy debugging aid).
  /// Empty when tags are not tracked.
  std::map<dift::Tag, std::size_t> tag_histogram() const;

  /// Block-summary layer over the tag plane (unattached when untracked).
  dift::ShadowSummary& shadow() { return shadow_; }
  const dift::ShadowSummary& shadow() const { return shadow_; }
  /// Reads served from a uniform block without touching the tag plane.
  std::uint64_t summary_hits() const { return summary_hits_; }

 private:
  /// Unmaps a plane (the deleter of Plane; `bytes` is the mapped length).
  struct Unmap {
    std::size_t bytes = 0;
    void operator()(std::uint8_t* p) const;
  };
  /// One byte plane (dift::Tag is a byte too).
  using Plane = std::unique_ptr<std::uint8_t[], Unmap>;

  /// Maps `bytes` of demand-zero memory (an empty plane for 0 bytes).
  static Plane map_plane(std::size_t bytes);

  void transport(tlmlite::Payload& p, sysc::Time& delay);

  tlmlite::TargetSocket tsock_;
  const std::size_t size_;
  Plane data_;
  Plane tags_;
  dift::ShadowSummary shadow_;
  std::uint64_t summary_hits_ = 0;
};

}  // namespace vpdift::soc
