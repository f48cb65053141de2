#include "vm/phys_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>

#include "obs/metrics.h"
#include "vm/sys.h"
#include "vm/va_freelist.h"
#include "vm/vm_stats.h"

namespace dpg::vm {

namespace {

[[noreturn]] void throw_errno(const char* what, int err) {
  throw std::system_error(err, std::generic_category(), what);
}

int make_memfd() {
  const sys::FdResult r = sys::memfd("dpguard-arena");
  if (!r.ok()) throw_errno("memfd_create", r.err);
  return r.fd;
}

}  // namespace

PhysArena::PhysArena(std::size_t va_window)
    : fd_(make_memfd()), window_(page_up(va_window)) {
  if (sysconf(_SC_PAGESIZE) != static_cast<long>(kPageSize)) {
    throw std::runtime_error("dpguard assumes 4 KiB pages");
  }
  // Map the whole canonical window up front. Pages beyond the current file
  // length SIGBUS if touched, which is fine: extend() grows the file before
  // handing out addresses. A single large mapping keeps offset_of() trivial.
  const sys::MapResult base =
      sys::map(nullptr, window_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (!base.ok()) {
    close(fd_);
    throw_errno("mmap canonical window", base.err);
  }
  canon_base_ = static_cast<std::byte*>(base.ptr);
}

PhysArena::~PhysArena() {
  if (canon_base_ != nullptr) {
    sys::unmap(canon_base_, window_);
  }
  if (fd_ >= 0) close(fd_);
}

void* PhysArena::extend(std::size_t bytes) {
  const std::size_t grow = page_up(bytes);
  std::lock_guard lock(mu_);
  if (length_ + grow > window_) throw std::bad_alloc{};
  sys::IoResult r = sys::truncate_fd(fd_, static_cast<off_t>(length_ + grow));
  if (!r.ok()) {
    // Kernel refusal: hand back every recyclable shadow span (VMA slots and
    // commit charge) and retry exactly once before failing the growth. The
    // caller reports the residual pressure to the DegradationGovernor.
    if (release_relief() > 0) {
      r = sys::truncate_fd(fd_, static_cast<off_t>(length_ + grow));
    }
  }
  if (!r.ok()) throw std::bad_alloc{};
  void* extent = canon_base_ + length_;
  length_ += grow;
  return extent;
}

std::size_t PhysArena::physical_bytes() const noexcept {
  std::lock_guard lock(mu_);
  return length_;
}

bool PhysArena::contains_canonical(const void* p) const noexcept {
  const auto a = addr(p);
  const auto base = addr(canon_base_);
  return a >= base && a < base + window_;
}

std::size_t PhysArena::offset_of(const void* p) const noexcept {
  return static_cast<std::size_t>(addr(p) - addr(canon_base_));
}

sys::MapResult PhysArena::try_map_shadow(const void* canonical_page,
                                         std::size_t len,
                                         void* fixed) noexcept {
  const std::size_t span = page_up(len);
  const std::size_t offset = offset_of(canonical_page);
  int flags = MAP_SHARED;
  if (fixed != nullptr) flags |= MAP_FIXED;
  sys::MapResult shadow = sys::map(fixed, span, PROT_READ | PROT_WRITE, flags,
                                   fd_, static_cast<off_t>(offset));
  if (!shadow.ok() && shadow.err == ENOMEM) {
    // ENOMEM on mmap is usually vm.max_map_count exhaustion — exactly the
    // pressure this design creates. Release recyclable spans, retry once.
    if (release_relief() > 0) {
      shadow = sys::map(fixed, span, PROT_READ | PROT_WRITE, flags, fd_,
                        static_cast<off_t>(offset));
    }
  }
  return shadow;
}

void* PhysArena::map_shadow(const void* canonical_page, std::size_t len,
                            void* fixed) {
  const sys::MapResult r = try_map_shadow(canonical_page, len, fixed);
  if (!r.ok()) throw std::bad_alloc{};
  return r.ptr;
}

void PhysArena::unmap(void* p, std::size_t len) noexcept {
  sys::unmap(p, page_up(len));
}

sys::IoResult PhysArena::try_protect_none(void* p, std::size_t len) noexcept {
  return sys::protect(p, page_up(len), PROT_NONE);
}

sys::IoResult PhysArena::try_revoke(void* p, std::size_t len) noexcept {
  sys::IoResult r = try_protect_none(p, len);
  if (!r.ok() && r.err == ENOMEM) {
    // Same pressure as mmap ENOMEM: the split pushed the process over
    // vm.max_map_count. Hand recyclable spans back and retry once.
    if (release_relief() > 0) r = try_protect_none(p, len);
  }
  return r;
}

sys::IoResult PhysArena::try_bury(void* p, std::size_t len) noexcept {
  sys::IoResult r = try_map_guard(p, len);
  if (!r.ok() && r.err == ENOMEM) {
    // Replacing the middle of a VMA splits it, so the remap meets
    // vm.max_map_count like mprotect does: relieve and retry once.
    if (release_relief() > 0) r = try_map_guard(p, len);
  }
  return r;
}

sys::IoResult PhysArena::try_protect_rw(void* p, std::size_t len) noexcept {
  return sys::protect(p, page_up(len), PROT_READ | PROT_WRITE);
}

void PhysArena::protect_none(void* p, std::size_t len) {
  const sys::IoResult r = try_protect_none(p, len);
  if (!r.ok()) throw_errno("mprotect NONE", r.err);
}

void PhysArena::protect_rw(void* p, std::size_t len) {
  const sys::IoResult r = try_protect_rw(p, len);
  if (!r.ok()) throw_errno("mprotect RW", r.err);
}

sys::IoResult PhysArena::try_map_guard(void* fixed, std::size_t len) noexcept {
  const sys::MapResult r =
      sys::map(fixed, page_up(len), PROT_NONE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
  return {r.err};
}

void PhysArena::map_guard(void* fixed, std::size_t len) {
  const sys::IoResult r = try_map_guard(fixed, len);
  if (!r.ok()) throw std::bad_alloc{};
}

void PhysArena::add_relief_source(VaFreeList* fl) {
  std::lock_guard lock(relief_mu_);
  relief_.push_back(fl);
}

void PhysArena::remove_relief_source(VaFreeList* fl) noexcept {
  std::lock_guard lock(relief_mu_);
  relief_.erase(std::remove(relief_.begin(), relief_.end(), fl),
                relief_.end());
}

std::size_t PhysArena::release_relief() noexcept {
  std::lock_guard lock(relief_mu_);
  std::size_t released = 0;
  for (VaFreeList* fl : relief_) released += fl->release_all();
  return released;
}

}  // namespace dpg::vm
