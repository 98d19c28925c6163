#pragma once

/// \file memory.hpp
/// Storage primitives for the bin-state memory layer: an aligned buffer with
/// an opt-in transparent-huge-page allocation path, portable prefetch
/// wrappers, and the `MemoryConfig` knob that travels in `GameConfig` (and,
/// as a provenance string, in `RunMeta`) the same way `stream` does.
///
/// None of this affects results. Where a ball lands depends only on the RNG
/// stream and the decide stage; page size, alignment, and prefetch distance
/// change when cache lines arrive, never what is read from them. Every
/// fixed-seed golden value is therefore identical under every MemoryConfig,
/// which is what lets shard sets recorded with different `--huge-pages`
/// settings merge (see Scenario::normalize_meta / RunMeta::merge_key).
///
/// docs/memory-layout.md documents the slot layout, the huge-page path, and
/// the prefetch contract in one place.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

namespace nubb {

/// Huge-page policy for AlignedBuffer allocations.
///
///   * kAuto — advise transparent huge pages for buffers of at least one
///     huge page (2 MiB); leave small buffers alone. The default: at 1M+
///     bins the slot array spans hundreds of 4 KiB TLB entries per random
///     probe working set, and 2 MiB backing removes almost all of them.
///   * kOn   — advise THP regardless of size.
///   * kOff  — never advise.
///
/// "Advise" is `madvise(MADV_HUGEPAGE)` on Linux and a no-op elsewhere; a
/// kernel with THP disabled simply ignores the hint. The fallback is silent
/// by design — the setting is a performance dial, not a correctness switch.
enum class HugePages : std::uint8_t { kAuto = 0, kOn = 1, kOff = 2 };

/// "auto" | "on" | "off" (the `nubb_run --huge-pages` spelling).
const char* to_string(HugePages hp) noexcept;

/// Inverse of to_string. \throws std::runtime_error on anything else.
HugePages parse_huge_pages(const std::string& name);

/// Storage tuning for one game. Travels in GameConfig like `stream`;
/// affects throughput only, never results (see the file comment).
struct MemoryConfig {
  /// Huge-page policy for the bin arrays' slot storage.
  HugePages huge_pages = HugePages::kAuto;

  /// Cross-ball software prefetch in the stream-v2 resolve loops: while
  /// ball i resolves, the slots of ball i + kPrefetchAhead's already-drawn
  /// candidates are prefetched out of the block buffer. Draw order is
  /// untouched, so toggling this cannot change any outcome.
  bool prefetch = true;

  bool operator==(const MemoryConfig&) const = default;
};

/// Read-prefetch hint (no-op on toolchains without one). The stream-v2
/// resolve loops use it for the cross-ball slot prefetch.
inline void prefetch_read(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

namespace detail {

/// Cache-line alignment for every buffer; huge-page-advised buffers are
/// additionally aligned to the huge-page size so the advice can map the
/// whole range, not just its interior.
inline constexpr std::size_t kCacheLineBytes = 64;
inline constexpr std::size_t kHugePageBytes = 2u << 20;

/// Allocate `bytes` with the alignment and huge-page advice `hp` calls for;
/// sets `advised` to whether MADV_HUGEPAGE was actually applied (telemetry
/// only). \throws std::bad_alloc.
void* allocate_aligned(std::size_t bytes, HugePages hp, bool& advised);

/// Free a pointer from allocate_aligned (`bytes`/`hp` must match).
void deallocate_aligned(void* p, std::size_t bytes, HugePages hp) noexcept;

}  // namespace detail

/// Fixed-capacity array of trivially copyable elements on storage from
/// allocate_aligned: cache-line aligned always, huge-page-backed when the
/// MemoryConfig asks for it (and the OS cooperates).
///
/// Unlike std::vector the element storage starts uninitialised — the owner
/// writes every element it uses. That is deliberate and is the first-touch
/// contract of the replication engine: physical pages are faulted by the
/// owner's initialising writes, on the thread that will run the game, so
/// per-chunk bin state lands on the NUMA node of the worker that scans it
/// (see replication_chunk_states in util/parallel.hpp).
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedBuffer treats storage as raw bytes");

 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count, const MemoryConfig& mem = {}) : mem_(mem) {
    allocate(count);
  }

  AlignedBuffer(const AlignedBuffer& other) : mem_(other.mem_) {
    allocate(other.size_);
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        mem_(other.mem_),
        advised_(std::exchange(other.advised_, false)) {}

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) *this = AlignedBuffer(other);
    return *this;
  }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      mem_ = other.mem_;
      advised_ = std::exchange(other.advised_, false);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  /// Grow to `new_count` elements, preserving the existing ones; the new
  /// tail is uninitialised (same owner-writes contract as construction).
  /// Invalidates data(). \pre new_count >= size().
  void grow(std::size_t new_count) {
    if (new_count <= size_) return;
    AlignedBuffer bigger(new_count, mem_);
    if (size_ != 0) std::memcpy(bigger.data_, data_, size_ * sizeof(T));
    *this = std::move(bigger);
  }

  /// Whether MADV_HUGEPAGE was applied to this allocation (telemetry; false
  /// on non-Linux builds and for buffers below the huge-page threshold
  /// under kAuto).
  bool huge_page_advised() const noexcept { return advised_; }

  const MemoryConfig& memory_config() const noexcept { return mem_; }

 private:
  void allocate(std::size_t count) {
    size_ = count;
    if (count == 0) return;
    data_ = static_cast<T*>(
        detail::allocate_aligned(count * sizeof(T), mem_.huge_pages, advised_));
  }

  void release() noexcept {
    if (data_ != nullptr) {
      detail::deallocate_aligned(data_, size_ * sizeof(T), mem_.huge_pages);
      data_ = nullptr;
    }
    size_ = 0;
    advised_ = false;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  MemoryConfig mem_;
  bool advised_ = false;
};

}  // namespace nubb
