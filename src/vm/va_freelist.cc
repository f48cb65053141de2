#include "vm/va_freelist.h"

#include <cassert>

#include "obs/metrics.h"
#include "vm/sys.h"
#include "vm/vm_stats.h"

namespace dpg::vm {

namespace {

// Process-wide trim tally across every VaFreeList instance (heaps, pool
// contexts come and go; the fleet counter must survive them).
std::atomic<std::uint64_t> g_va_trims{0};

void register_trim_counter() noexcept {
  static const bool once = [] {
    obs::register_counter("dpg_va_trims", &g_va_trims);
    return true;
  }();
  (void)once;
}

}  // namespace

VaFreeList::VaFreeList(Ranges ranges) : ranges_(ranges) {
  register_trim_counter();
}

VaFreeList::~VaFreeList() { release_all(); }

bool VaFreeList::over_water_locked() noexcept {
  if (ranges_ == Ranges::kBorrowed || trim_limit_ == 0 ||
      count_ < trim_limit_) {
    return false;
  }
  ++trims_;
  return true;
}

void VaFreeList::sub_locked(std::size_t bytes, std::size_t ranges) noexcept {
  bytes_ -= bytes;
  count_ -= ranges;
}

void VaFreeList::put(PageRange range) {
  assert(page_offset(range.base) == 0);
  assert(range.length % kPageSize == 0);
  if (range.length == 0) return;
  obs::record_event(obs::EventKind::kVaReclaim, range.base, range.pages());
  bool over_water = false;
  {
    std::lock_guard lock(mu_);
    buckets_[range.pages()].push_back(range.base);
    bytes_ += range.length;
    ++count_;
    over_water = over_water_locked();
  }
  // High-water crossing: reuse is not keeping up with donation, and a held
  // alias is one VMA against vm.max_map_count. Drain the whole list
  // through the coalescing release path — adjacent ranges merge into a
  // handful of munmap calls, so the trim amortizes to far less than one
  // syscall per range (a retail unmap-per-put here measurably halves
  // multi-thread throughput). Draining while the kernel still has map-slot
  // headroom is the point: at the hard limit even munmap can fail, because
  // unmapping the interior of a VMA must split it.
  if (over_water) {
    g_va_trims.fetch_add(1, std::memory_order_relaxed);
    release_all();
  }
}

void VaFreeList::park(std::span<const Alias> aliases) {
  bool over_water = false;
  {
    std::lock_guard lock(mu_);
    for (const Alias& a : aliases) {
      assert(page_offset(a.range.base) == 0 && page_offset(a.offset) == 0);
      const std::size_t pages = a.range.pages();
      if (pages == 0) continue;
      std::uint32_t n;
      if (free_nodes_.empty()) {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
      } else {
        n = free_nodes_.back();
        free_nodes_.pop_back();
      }
      Node& node = nodes_[n];
      node.alias = a;
      // Push on the key chain's head and the size FIFO's head (newest).
      std::uint32_t& key_head = by_key_.try_emplace(Key{a.offset, pages}, kNil)
                                    .first->second;
      node.key_prev = kNil;
      node.key_next = key_head;
      if (key_head != kNil) nodes_[key_head].key_prev = n;
      key_head = n;
      SizeFifo& fifo = by_size_[pages];
      node.size_prev = kNil;
      node.size_next = fifo.head;
      if (fifo.head != kNil) nodes_[fifo.head].size_prev = n;
      fifo.head = n;
      if (fifo.tail == kNil) fifo.tail = n;
      bytes_ += a.range.length;
      ++count_;
    }
    over_water = over_water_locked();  // one donation, one trim check
  }
  if (over_water) {
    g_va_trims.fetch_add(1, std::memory_order_relaxed);
    release_all();
  }
}

void VaFreeList::unlink_keyed_locked(std::uint32_t n) {
  Node& node = nodes_[n];
  const std::size_t pages = node.alias.range.pages();
  if (node.key_prev != kNil) {
    nodes_[node.key_prev].key_next = node.key_next;
  } else {
    auto it = by_key_.find(Key{node.alias.offset, pages});
    if (node.key_next == kNil) {
      by_key_.erase(it);
    } else {
      it->second = node.key_next;
    }
  }
  if (node.key_next != kNil) nodes_[node.key_next].key_prev = node.key_prev;
  SizeFifo& fifo = by_size_[pages];
  if (node.size_prev != kNil) {
    nodes_[node.size_prev].size_next = node.size_next;
  } else {
    fifo.head = node.size_next;
  }
  if (node.size_next != kNil) {
    nodes_[node.size_next].size_prev = node.size_prev;
  } else {
    fifo.tail = node.size_prev;
  }
  free_nodes_.push_back(n);
  sub_locked(node.alias.range.length, 1);
}

std::optional<VaFreeList::Alias> VaFreeList::take_alias(std::size_t offset,
                                                        std::size_t len) {
  std::lock_guard lock(mu_);
  auto it = by_key_.find(Key{offset, page_up(len) / kPageSize});
  if (it == by_key_.end()) return std::nullopt;
  const std::uint32_t n = it->second;
  const Alias a = nodes_[n].alias;
  unlink_keyed_locked(n);
  return a;
}

std::optional<PageRange> VaFreeList::take_keyed_by_size_locked(
    std::size_t pages) {
  auto it = by_size_.find(pages);
  if (it == by_size_.end() || it->second.tail == kNil) return std::nullopt;
  // Oldest first: the newest spans alias the canonical extents the shared
  // extent list hands out next, so they are the likeliest keyed hits.
  const std::uint32_t n = it->second.tail;
  const PageRange r = nodes_[n].alias.range;
  unlink_keyed_locked(n);
  return r;
}

std::optional<PageRange> VaFreeList::take_plain_exact_locked(
    std::size_t pages) {
  auto it = buckets_.find(pages);
  if (it == buckets_.end() || it->second.empty()) return std::nullopt;
  const std::uintptr_t base = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) buckets_.erase(it);
  sub_locked(pages * kPageSize, 1);
  return PageRange{base, pages * kPageSize};
}

void VaFreeList::set_trim_limit(std::size_t ranges) noexcept {
  std::lock_guard lock(mu_);
  trim_limit_ = ranges;
}

std::size_t VaFreeList::trims() const {
  std::lock_guard lock(mu_);
  return trims_;
}

std::optional<PageRange> VaFreeList::take(std::size_t len) {
  const std::size_t want = page_up(len);
  const std::size_t want_pages = want / kPageSize;
  std::lock_guard lock(mu_);
  // Exact-size plain bucket first (the common case: uniform shadow pages),
  // then a keyed span of the same size: converting it costs the caller the
  // same MAP_FIXED, and leaving it parked while a larger span is split (or a
  // fresh one mapped) would grow the parked population past peak demand.
  if (auto r = take_plain_exact_locked(want_pages)) return r;
  if (auto r = take_keyed_by_size_locked(want_pages)) return r;
  // Otherwise split the smallest strictly-larger plain range.
  auto it = buckets_.upper_bound(want_pages);
  while (it != buckets_.end() && it->second.empty()) ++it;
  if (it == buckets_.end()) return std::nullopt;
  const std::size_t donor_pages = it->first;
  const std::uintptr_t base = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) buckets_.erase(it);
  const std::size_t rest_pages = donor_pages - want_pages;
  if (rest_pages > 0) buckets_[rest_pages].push_back(base + want);
  sub_locked(want, rest_pages > 0 ? 0 : 1);
  return PageRange{base, want};
}

std::optional<PageRange> VaFreeList::take_exact(std::size_t len) {
  const std::size_t want_pages = page_up(len) / kPageSize;
  std::lock_guard lock(mu_);
  if (auto r = take_plain_exact_locked(want_pages)) return r;
  return take_keyed_by_size_locked(want_pages);
}

std::vector<PageRange> VaFreeList::take_all_locked() {
  std::vector<PageRange> all;
  all.reserve(count_);
  for (auto& [pages, addrs] : buckets_) {
    for (std::uintptr_t a : addrs) {
      all.push_back(PageRange{a, pages * kPageSize});
    }
  }
  for (const auto& [key, head] : by_key_) {
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].key_next) {
      all.push_back(nodes_[n].alias.range);
    }
  }
  buckets_.clear();
  nodes_.clear();
  free_nodes_.clear();
  by_key_.clear();
  by_size_.clear();
  bytes_ = 0;
  count_ = 0;
  return all;
}

std::size_t VaFreeList::release_all() noexcept {
  std::vector<PageRange> all;
  {
    std::lock_guard lock(mu_);
    all = take_all_locked();
  }
  // Borrowed ranges belong to the arena's canonical mapping: forget them.
  if (ranges_ == Ranges::kBorrowed) return 0;
  // Coalesce: pool pages often re-enter the list in allocation order, so
  // sorting and merging adjacent ranges turns thousands of per-object spans
  // into a handful of munmap calls — this path runs when the kernel is
  // already refusing us VMAs, so economy matters.
  coalesce(all);
  std::size_t released = 0;
  for (const PageRange& run : all) {
    sys::unmap(reinterpret_cast<void*>(run.base), run.length);
    released += run.length;
  }
  return released;
}

std::size_t VaFreeList::bytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

std::size_t VaFreeList::ranges() const {
  std::lock_guard lock(mu_);
  return count_;
}

}  // namespace dpg::vm
