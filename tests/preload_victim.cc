// Victim binary for the LD_PRELOAD interposition tests. Knows nothing about
// dpguard: plain malloc/free C++ with selectable bugs.
//
//   preload_victim clean    exercise malloc/calloc/realloc/free correctly
//   preload_victim churn    sustained varied-size malloc/free (a server-ish
//                           workload; used for degraded-mode smoke runs)
//   preload_victim hold     keep a few thousand blocks live at once, then
//                           free them (drives the VMA gauge up)
//   preload_victim uaf      read through a dangling pointer
//   preload_victim uaf-w    write through a dangling pointer
//   preload_victim df       double free
//   preload_victim stale-realloc   use the pre-realloc pointer
//
// Exit codes (each scenario outcome is distinct so the harness can tell
// *which* bug slipped through, not merely that one did):
//    0  scenario completed as intended (clean/churn ok)
//    2  unknown mode on the command line
//    3  clean: calloc memory was not zeroed
//    4  churn: malloc returned nullptr
//    5  hold: malloc returned nullptr or a block lost its contents
//   10  uaf: dangling read went undetected
//   11  uaf-w: dangling write went undetected
//   12  df: double free went undetected
//   13  stale-realloc: stale pre-realloc alias read went undetected
//   14  stale-realloc: realloc did not move the block (inconclusive)
// Under the preload the bug modes never reach their exit — the guard aborts
// the process first (SIGABRT), which is what the tests assert.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

// Every bug below is deliberate — the binary exists to trigger them under
// the interposer — so the compiler's (correct) UAF diagnosis is noise here.
#pragma GCC diagnostic ignored "-Wuse-after-free"

namespace {

// The optimizer is entitled to delete UB (a store to freed memory is a dead
// store; a second free of the same pointer may be folded). Launder the
// pointer so each bug actually reaches the allocator/MMU at -O2.
template <typename T>
T* launder_ptr(T* p) {
  asm volatile("" : "+r"(p));
  return p;
}

int run_clean() {
  std::vector<char*> blocks;
  for (int i = 0; i < 200; ++i) {
    auto* p = static_cast<char*>(std::malloc(static_cast<std::size_t>(16 + i)));
    std::snprintf(p, 16, "block-%d", i);
    blocks.push_back(p);
  }
  auto* z = static_cast<int*>(std::calloc(64, sizeof(int)));
  for (int i = 0; i < 64; ++i) {
    if (z[i] != 0) return 3;
  }
  z = static_cast<int*>(std::realloc(z, 128 * sizeof(int)));
  z[100] = 7;
  std::free(z);
  long checksum = 0;
  for (char* p : blocks) {
    checksum += p[0];
    std::free(p);
  }
  std::printf("clean ok %ld\n", checksum);
  return 0;
}

// A few thousand correct allocations across the size classes with staggered
// frees — the shape of a request-serving process. Used with DPG_FAULT_INJECT
// to prove the host keeps running when the kernel refuses guard syscalls.
int run_churn() {
  std::vector<char*> live;
  long checksum = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t size = static_cast<std::size_t>(16 + (i * 37) % 3000);
    auto* p = static_cast<char*>(std::malloc(size));
    if (p == nullptr) return 4;
    p[0] = static_cast<char>('a' + i % 26);
    p[size - 1] = p[0];
    live.push_back(p);
    if (live.size() > 64) {
      char* victim = live.front();
      live.erase(live.begin());
      checksum += victim[0];
      std::free(victim);
    }
  }
  for (char* p : live) {
    checksum += p[0];
    std::free(p);
  }
  std::printf("churn ok %ld\n", checksum);
  return 0;
}

// Thousands of simultaneously live blocks: each guarded one holds an alias
// VMA, so a low DPG_VMA_BUDGET must move the governor's ladder.
int run_hold() {
  std::vector<char*> live;
  for (int i = 0; i < 3000; ++i) {
    const std::size_t size = static_cast<std::size_t>(24 + (i * 53) % 2000);
    auto* p = static_cast<char*>(std::malloc(size));
    if (p == nullptr) return 5;
    std::memset(p, 'a' + i % 26, size);
    live.push_back(p);
  }
  long checksum = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i][0] != 'a' + static_cast<int>(i % 26)) return 5;
    checksum += live[i][0];
    std::free(live[i]);
  }
  std::printf("hold ok %ld\n", checksum);
  return 0;
}

int run_uaf(bool write) {
  auto* p = static_cast<char*>(std::malloc(64));
  std::strcpy(p, "session-token");
  std::free(p);
  if (write) {
    launder_ptr(p)[0] = 'X';  // dangling write
    asm volatile("" ::: "memory");
  } else {
    volatile char c = launder_ptr(p)[0];  // dangling read
    (void)c;
  }
  std::printf("BUG NOT DETECTED\n");
  return write ? 11 : 10;
}

int run_df() {
  void* p = std::malloc(48);
  std::free(p);
  std::free(launder_ptr(p));  // double free
  std::printf("BUG NOT DETECTED\n");
  return 12;
}

int run_stale_realloc() {
  auto* p = static_cast<char*>(std::malloc(32));
  std::strcpy(p, "old");
  auto* q = static_cast<char*>(std::realloc(p, 4096));
  if (p != q) {
    volatile char c = launder_ptr(p)[0];  // stale pre-realloc alias
    (void)c;
    std::printf("BUG NOT DETECTED\n");
    return 13;
  }
  std::free(q);
  std::printf("realloc did not move; inconclusive\n");
  return 14;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "clean";
  if (mode == "clean") return run_clean();
  if (mode == "churn") return run_churn();
  if (mode == "hold") return run_hold();
  if (mode == "uaf") return run_uaf(false);
  if (mode == "uaf-w") return run_uaf(true);
  if (mode == "df") return run_df();
  if (mode == "stale-realloc") return run_stale_realloc();
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
