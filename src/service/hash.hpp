// Content hashing for the service's warm caches.
//
// Every cache in the service layer is keyed by what the submission actually
// contains, not by when or how it arrived: an ELF image by its file bytes, a
// policy by its text, a fault-injection suite by (firmware content, seed).
// Resubmitting identical content therefore hits, and changing a single byte
// anywhere in an input deterministically misses — there is no TTL and no
// mtime heuristic to go stale. FNV-1a 64 is enough: keys live in one
// process, collisions only cost a wrong cache hit among a handful of
// entries, and the hash is trivially reproducible from the docs
// (docs/service.md documents every key derivation).
#pragma once

#include <cstdint>
#include <string>

#include "campaign/hash.hpp"

namespace vpdift::service {

// The hash itself lives with the lowest library that keys by content.
using campaign::fnv1a64;
using campaign::fnv1a64_u64;

/// 16 lowercase hex digits.
std::string hash_hex(std::uint64_t h);

/// FNV-1a 64 of a file's contents; throws std::runtime_error if unreadable.
std::uint64_t hash_file(const std::string& path);

}  // namespace vpdift::service
