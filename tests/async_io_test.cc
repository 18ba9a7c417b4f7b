// The async multi-queue submission path: virtual-time submission lanes
// (sim::SimClock::BeginAsync), the block layer's SubmitWrite/SubmitRead,
// fs::File::SubmitAppend, per-channel overlap in ssd::SsdDevice, and the
// sharded store's queue_depth async dispatch. The headline properties:
//  - commands submitted on distinct queues from the same instant overlap
//    in virtual time (wait-all costs max, not sum) iff the device has
//    channels for them;
//  - synchronous calls are exactly submit-then-wait (identical timing);
//  - a multi-channel async sharded commit finishes EARLIER in simulated
//    device time than the serialized equivalent, with identical final
//    store contents — and deterministically so;
//  - kv::BackgroundPool, the one path engines run background work on:
//    per-lane serialization, cross-lane overlap, Barrier/Join, and the
//    inline fallbacks (no clock, or already inside a lane).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "fs/file.h"
#include "fs/filesystem.h"
#include "kv/background_pool.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "util/crc32.h"

namespace ptsb {
namespace {

ssd::SsdConfig SmallSsd(int channels, uint64_t cache_bytes = 0) {
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 64ull << 20;
  cfg.channels = channels;
  // cache_bytes = 0 makes host writes synchronous with the channel
  // backend, so program time is visible in every command's latency and
  // overlap (or its absence) shows up directly in the clock.
  cfg.timing.cache_bytes = cache_bytes;
  return cfg;
}

TEST(SimClockLaneTest, LanesForkAndJoinByMax) {
  sim::SimClock clock;
  clock.Advance(1000);
  ASSERT_TRUE(clock.BeginAsync(3));
  EXPECT_TRUE(clock.InAsync());
  EXPECT_EQ(clock.AsyncQueue(), 3u);
  EXPECT_EQ(clock.NowNanos(), 1000);  // lane seeded with global now
  clock.Advance(500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  // Nested begin is refused: the inner submission runs in this lane.
  EXPECT_FALSE(clock.BeginAsync(7));
  EXPECT_EQ(clock.AsyncQueue(), 3u);
  const int64_t t1 = clock.EndAsync();
  EXPECT_EQ(t1, 1500);
  // Ending the lane did not touch the global clock.
  EXPECT_FALSE(clock.InAsync());
  EXPECT_EQ(clock.NowNanos(), 1000);

  // A second lane from the same instant overlaps the first: joining both
  // advances to the max, not the sum.
  ASSERT_TRUE(clock.BeginAsync(4));
  clock.Advance(200);
  const int64_t t2 = clock.EndAsync();
  clock.AdvanceTo(t1);
  clock.AdvanceTo(t2);
  EXPECT_EQ(clock.NowNanos(), 1500);
}

TEST(SimClockLaneTest, LanesAreThreadLocal) {
  sim::SimClock clock;
  ASSERT_TRUE(clock.BeginAsync(1));
  clock.Advance(700);
  std::thread other([&clock] {
    // This thread has no lane: it sees (and moves) the global clock.
    EXPECT_FALSE(clock.InAsync());
    EXPECT_EQ(clock.NowNanos(), 0);
    clock.Advance(50);
  });
  other.join();
  EXPECT_EQ(clock.NowNanos(), 700);  // lane view unaffected
  const int64_t done = clock.EndAsync();
  EXPECT_EQ(clock.NowNanos(), 50);  // global moved only by the other thread
  clock.AdvanceTo(done);
  // The join is a monotonic max with the other thread's progress, not a
  // sum: the lane's work overlapped it.
  EXPECT_EQ(clock.NowNanos(), 700);
}

// Submitting the same work on distinct queues of a multi-channel device
// must cost ~max of the command latencies; on a single channel it stays
// serialized. Content is identical either way.
// ---- kv::BackgroundPool -------------------------------------------------

TEST(BackgroundPoolTest, OneLaneRunsBackToBackAndBusyAddsUp) {
  sim::SimClock clock;
  clock.Advance(1000);
  kv::BackgroundPool pool(&clock, 5, 1);
  const kv::BackgroundResult a = pool.Run(0, [&] {
    EXPECT_EQ(clock.NowNanos(), 1000);  // lane seeded at the foreground
    clock.Advance(300);
    return Status::OK();
  });
  const kv::BackgroundResult b = pool.Run(0, [&] {
    EXPECT_EQ(clock.NowNanos(), 1300);  // behind the lane's first span
    clock.Advance(200);
    return Status::OK();
  });
  EXPECT_TRUE(a.status.ok());
  EXPECT_TRUE(b.status.ok());
  EXPECT_EQ(a.busy_ns, 300);
  EXPECT_EQ(b.busy_ns, 200);
  EXPECT_EQ(pool.horizon_ns(), 1500);
  EXPECT_EQ(clock.NowNanos(), 1000);  // the foreground never moved
}

TEST(BackgroundPoolTest, LanesOverlapOnConsecutiveQueues) {
  sim::SimClock clock;
  clock.Advance(1000);
  kv::BackgroundPool pool(&clock, 8, 2);
  EXPECT_EQ(pool.lanes(), 2);
  const kv::BackgroundResult a = pool.Run(0, [&] {
    EXPECT_EQ(clock.AsyncQueue(), 8u);
    EXPECT_EQ(clock.ActiveIoClass(sim::IoClass::kForegroundWrite),
              sim::IoClass::kBackground);
    clock.Advance(400);
    return Status::OK();
  });
  const kv::BackgroundResult b = pool.Run(1, [&] {
    EXPECT_EQ(clock.AsyncQueue(), 9u);
    EXPECT_EQ(clock.NowNanos(), 1000);  // not behind lane 0
    clock.Advance(300);
    return Status::OK();
  });
  EXPECT_EQ(a.busy_ns, 400);
  EXPECT_EQ(b.busy_ns, 300);
  EXPECT_EQ(pool.horizon_ns(), 1400);  // max of the lanes, not the sum
  // Lane indexes wrap: lane 2 is lane 0 again, behind its first span.
  pool.Run(2, [&] {
    EXPECT_EQ(clock.AsyncQueue(), 8u);
    EXPECT_EQ(clock.NowNanos(), 1400);
    return Status::OK();
  });
  EXPECT_EQ(clock.NowNanos(), 1000);
}

TEST(BackgroundPoolTest, BarrierOrdersLanesWithoutMovingTheForeground) {
  sim::SimClock clock;
  kv::BackgroundPool pool(&clock, 1, 2);
  pool.Run(0, [&] {
    clock.Advance(900);
    return Status::OK();
  });
  pool.Barrier();
  EXPECT_EQ(clock.NowNanos(), 0);
  EXPECT_EQ(pool.horizon_ns(), 900);
  // Lane 1 had no work of its own, yet now starts behind lane 0's.
  const kv::BackgroundResult r = pool.Run(1, [&] {
    EXPECT_EQ(clock.NowNanos(), 900);
    clock.Advance(100);
    return Status::OK();
  });
  EXPECT_EQ(r.busy_ns, 100);
  EXPECT_EQ(clock.NowNanos(), 0);
}

TEST(BackgroundPoolTest, JoinAdvancesTheClockToTheMaxHorizon) {
  sim::SimClock clock;
  clock.Advance(50);
  kv::BackgroundPool pool(&clock, 1, 3);
  const int64_t spans[] = {700, 250, 400};
  for (int l = 0; l < 3; l++) {
    pool.Run(l, [&] {
      clock.Advance(spans[l]);
      return Status::OK();
    });
  }
  EXPECT_EQ(clock.NowNanos(), 50);
  pool.Join();
  EXPECT_EQ(clock.NowNanos(), 750);
  // Joining again, or past a horizon already reached, moves nothing.
  clock.Advance(10);
  pool.Join();
  EXPECT_EQ(clock.NowNanos(), 760);
}

TEST(BackgroundPoolTest, NullClockRunsInline) {
  kv::BackgroundPool pool(nullptr, 1, 3);
  int calls = 0;
  const kv::BackgroundResult r = pool.Run(2, [&] {
    calls++;
    return Status::IoError("propagated");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(r.status.IsIoError());
  EXPECT_EQ(r.busy_ns, 0);
  EXPECT_EQ(pool.horizon_ns(), 0);
  pool.Join();  // no clock: nothing to advance
}

TEST(BackgroundPoolTest, RunInsideAnEnclosingLaneRunsInline) {
  sim::SimClock clock;
  clock.Advance(100);
  kv::BackgroundPool pool(&clock, 4, 2);
  ASSERT_TRUE(clock.BeginAsync(0, sim::IoClass::kForegroundWrite));
  clock.Advance(20);
  const kv::BackgroundResult r = pool.Run(1, [&] {
    // Still the enclosing lane: its queue, class and local time.
    EXPECT_EQ(clock.AsyncQueue(), 0u);
    EXPECT_EQ(clock.ActiveIoClass(sim::IoClass::kBackground),
              sim::IoClass::kForegroundWrite);
    EXPECT_EQ(clock.NowNanos(), 120);
    clock.Advance(30);
    return Status::OK();
  });
  EXPECT_EQ(r.busy_ns, 0);
  EXPECT_EQ(clock.EndAsync(), 150);  // the work charged the caller's lane
  EXPECT_EQ(pool.horizon_ns(), 0);
  EXPECT_EQ(clock.NowNanos(), 100);
}

TEST(BackgroundPoolTest, EnginePoolsFanOutOnlyWhenTimed) {
  sim::SimClock clock;
  EXPECT_EQ(kv::BackgroundPool::ForEngine(&clock, true, 1, 4).lanes(), 4);
  EXPECT_EQ(kv::BackgroundPool::ForEngine(&clock, true, 1, 0).lanes(), 1);
  EXPECT_EQ(kv::BackgroundPool::ForEngine(&clock, false, 1, 4).lanes(), 1);
  EXPECT_EQ(kv::BackgroundPool::ForEngine(nullptr, true, 1, 4).lanes(), 1);
  // Untimed: background_io off runs maintenance on the foreground.
  kv::BackgroundPool untimed =
      kv::BackgroundPool::ForEngine(&clock, false, 1, 4);
  const kv::BackgroundResult r = untimed.Run(0, [&] {
    EXPECT_FALSE(clock.InAsync());
    clock.Advance(80);
    return Status::OK();
  });
  EXPECT_EQ(r.busy_ns, 0);
  EXPECT_EQ(clock.NowNanos(), 80);
}

TEST(SsdChannelTest, DistinctQueuesOverlapOnDistinctChannels) {
  constexpr uint64_t kPages = 512;  // 2 MiB per command
  const std::string payload(kPages * 4096, 'x');

  auto run = [&](int channels, bool async) -> int64_t {
    sim::SimClock clock;
    ssd::SsdDevice dev(SmallSsd(channels), &clock);
    if (async) {
      std::vector<block::IoTicket> tickets;
      for (uint32_t q = 0; q < 4; q++) {
        tickets.push_back(dev.SubmitWrite(
            q * kPages, kPages,
            reinterpret_cast<const uint8_t*>(payload.data()), q));
      }
      for (const auto& t : tickets) EXPECT_TRUE(dev.Wait(t).ok());
    } else {
      for (uint32_t q = 0; q < 4; q++) {
        EXPECT_TRUE(dev.Write(q * kPages, kPages,
                              reinterpret_cast<const uint8_t*>(
                                  payload.data()))
                        .ok());
      }
    }
    // Contents are applied at submit regardless of timing model.
    std::vector<uint8_t> page(4096);
    EXPECT_TRUE(dev.Read(3 * kPages, 1, page.data()).ok());
    EXPECT_EQ(page[0], 'x');
    return clock.NowNanos();
  };

  const int64_t sync_1ch = run(1, /*async=*/false);
  const int64_t async_1ch = run(1, /*async=*/true);
  const int64_t async_4ch = run(4, /*async=*/true);

  // One channel serializes async submissions too (queue % 1 == 0 always).
  EXPECT_GT(async_1ch, async_4ch);
  // Four channels overlap the four commands: far below the serialized
  // run, and within a factor of ~2.5 of a single command's cost.
  EXPECT_LT(async_4ch, sync_1ch / 2);
  // Determinism: the virtual timeline is a pure function of the inputs.
  EXPECT_EQ(async_4ch, run(4, /*async=*/true));
}

// Reads submitted on distinct queues overlap on distinct channels; on a
// single channel they serialize on the read pipeline to exactly the
// sequential total. Contents and class accounting are independent of the
// timing model.
TEST(SsdChannelTest, ReadsOverlapAcrossChannelsAndSerializeWithinOne) {
  constexpr uint64_t kPages = 256;  // 1 MiB per command
  const std::string payload(kPages * 4096, 'r');

  auto run = [&](int channels, bool async) -> int64_t {
    sim::SimClock clock;
    ssd::SsdDevice dev(SmallSsd(channels), &clock);
    for (uint32_t q = 0; q < 4; q++) {
      EXPECT_TRUE(dev.Write(q * kPages, kPages,
                            reinterpret_cast<const uint8_t*>(payload.data()))
                      .ok());
    }
    // Let the programs drain so read interference is identical across
    // timing modes.
    clock.Advance(sim::kNanosPerSecond);
    const int64_t t0 = clock.NowNanos();
    std::vector<std::vector<uint8_t>> bufs(4,
                                           std::vector<uint8_t>(kPages * 4096));
    if (async) {
      std::vector<block::IoTicket> tickets;
      for (uint32_t q = 0; q < 4; q++) {
        tickets.push_back(dev.SubmitRead(q * kPages, kPages,
                                         bufs[q].data(), q));
      }
      for (const auto& t : tickets) EXPECT_TRUE(dev.Wait(t).ok());
    } else {
      for (uint32_t q = 0; q < 4; q++) {
        EXPECT_TRUE(dev.Read(q * kPages, kPages, bufs[q].data()).ok());
      }
    }
    for (const auto& buf : bufs) EXPECT_EQ(buf[0], 'r');
    // Read occupancy is accounted under the foreground-read class.
    const auto stats = dev.channel_stats();
    int64_t read_busy = 0;
    for (const auto& ch : stats) {
      read_busy +=
          ch.class_busy_ns[static_cast<int>(sim::IoClass::kForegroundRead)];
    }
    EXPECT_GT(read_busy, 0);
    return clock.NowNanos() - t0;
  };

  const int64_t sync_1ch = run(1, /*async=*/false);
  const int64_t async_1ch = run(1, /*async=*/true);
  const int64_t async_4ch = run(4, /*async=*/true);
  // One channel: concurrent reads serialize on the read pipeline to the
  // nanosecond of the sequential run.
  EXPECT_EQ(async_1ch, sync_1ch);
  // Four channels: the four reads overlap (well under half the total).
  EXPECT_LT(async_4ch, sync_1ch / 2);
  EXPECT_EQ(async_4ch, run(4, /*async=*/true));  // deterministic
}

// A synchronous call is exactly submit-then-wait on queue 0.
TEST(SsdChannelTest, SyncWriteEqualsSubmitThenWait) {
  const std::string payload(64 * 4096, 'y');
  sim::SimClock c1, c2;
  ssd::SsdDevice d1(SmallSsd(4), &c1);
  ssd::SsdDevice d2(SmallSsd(4), &c2);
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(
        d1.Write(static_cast<uint64_t>(i) * 64, 64,
                 reinterpret_cast<const uint8_t*>(payload.data()))
            .ok());
    ASSERT_TRUE(
        d2.Wait(d2.SubmitWrite(static_cast<uint64_t>(i) * 64, 64,
                               reinterpret_cast<const uint8_t*>(
                                   payload.data()),
                               0))
            .ok());
  }
  EXPECT_EQ(c1.NowNanos(), c2.NowNanos());
  EXPECT_EQ(d1.smart().host_bytes_written, d2.smart().host_bytes_written);
}

// File-level async: four files appended on four queues overlap in virtual
// time on a four-channel device.
TEST(FileAsyncTest, SubmitAppendOverlapsAcrossFiles) {
  const std::string chunk(1 << 20, 'f');
  auto run = [&](bool async) -> int64_t {
    sim::SimClock clock;
    ssd::SsdDevice dev(SmallSsd(4), &clock);
    fs::SimpleFs fs(&dev, {});
    std::vector<fs::File*> files;
    for (int i = 0; i < 4; i++) {
      files.push_back(*fs.Create("f" + std::to_string(i)));
    }
    if (async) {
      std::vector<block::IoTicket> tickets;
      for (uint32_t q = 0; q < 4; q++) {
        tickets.push_back(files[q]->SubmitAppend(chunk, q));
      }
      for (size_t q = 0; q < 4; q++) {
        EXPECT_TRUE(files[q]->Wait(tickets[q]).ok());
      }
    } else {
      for (auto* f : files) EXPECT_TRUE(f->Append(chunk).ok());
    }
    for (auto* f : files) EXPECT_EQ(f->size(), chunk.size());
    return clock.NowNanos();
  };
  const int64_t sync_ns = run(/*async=*/false);
  const int64_t async_ns = run(/*async=*/true);
  EXPECT_LT(async_ns, sync_ns / 2);

  // Submitted data is immediately visible to reads.
  sim::SimClock clock;
  ssd::SsdDevice dev(SmallSsd(4), &clock);
  fs::SimpleFs fs(&dev, {});
  fs::File* f = *fs.Create("g");
  const block::IoTicket t = f->SubmitAppend("hello async", 2);
  std::string buf(11, '\0');
  ASSERT_TRUE(f->ReadAt(0, buf.size(), buf.data()).ok());
  EXPECT_EQ(buf, "hello async");
  EXPECT_TRUE(f->Wait(t).ok());
}

// File-level async reads: SubmitReadAt reads exactly the requested range
// inside a lane, overlaps across queues, and errors (rather than
// truncating) past EOF.
TEST(FileAsyncTest, SubmitReadAtOverlapsAndRejectsShortReads) {
  const std::string chunk(1 << 20, 'q');
  sim::SimClock clock;
  ssd::SsdDevice dev(SmallSsd(4), &clock);
  fs::SimpleFs fs(&dev, {});
  std::vector<fs::File*> files;
  for (int i = 0; i < 4; i++) {
    files.push_back(*fs.Create("r" + std::to_string(i)));
    ASSERT_TRUE(files.back()->Append(chunk).ok());
  }
  clock.Advance(sim::kNanosPerSecond);  // drain programs

  // Sequential baseline.
  std::vector<std::string> bufs(4, std::string(chunk.size(), '\0'));
  const int64_t t0 = clock.NowNanos();
  for (int i = 0; i < 4; i++) {
    auto got = files[static_cast<size_t>(i)]->ReadAt(
        0, chunk.size(), bufs[static_cast<size_t>(i)].data());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, chunk.size());
  }
  const int64_t seq_ns = clock.NowNanos() - t0;

  // Fan the same four reads out on four queues.
  const int64_t t1 = clock.NowNanos();
  std::vector<block::IoTicket> tickets;
  for (uint32_t q = 0; q < 4; q++) {
    bufs[q].assign(chunk.size(), '\0');
    tickets.push_back(files[q]->SubmitReadAt(0, chunk.size(),
                                             bufs[q].data(), q));
  }
  for (size_t q = 0; q < 4; q++) {
    EXPECT_TRUE(files[q]->Wait(tickets[q]).ok());
    EXPECT_EQ(bufs[q], chunk);
  }
  const int64_t fan_ns = clock.NowNanos() - t1;
  EXPECT_LT(fan_ns, seq_ns / 2);

  // A range past EOF is an error in the ticket, not a silent short read.
  std::string small(16, '\0');
  const block::IoTicket bad =
      files[0]->SubmitReadAt(chunk.size() - 8, 16, small.data(), 1);
  EXPECT_TRUE(files[0]->Wait(bad).IsIoError());
}

// ---- The engine read path ---------------------------------------------

// ReadAsync immediately awaited replays the synchronous Get timeline to
// the nanosecond (the read-side twin of submit-then-wait == sync).
TEST(ReadAsyncTest, SubmitThenWaitMatchesSyncGet) {
  auto make = [](sim::SimClock* clock, ssd::SsdDevice* ssd,
                 std::unique_ptr<fs::SimpleFs>* fs)
      -> std::unique_ptr<kv::KVStore> {
    *fs = std::make_unique<fs::SimpleFs>(ssd, fs::FsOptions{});
    kv::EngineOptions options;
    options.engine = "alog";
    options.fs = fs->get();
    options.clock = clock;
    options.params = {{"segment_bytes", std::to_string(1 << 20)}};
    auto opened = kv::OpenStore(options);
    EXPECT_TRUE(opened.ok());
    return *std::move(opened);
  };
  sim::SimClock c1, c2;
  ssd::SsdDevice d1(SmallSsd(4), &c1), d2(SmallSsd(4), &c2);
  std::unique_ptr<fs::SimpleFs> f1, f2;
  auto s1 = make(&c1, &d1, &f1);
  auto s2 = make(&c2, &d2, &f2);
  for (uint64_t id = 0; id < 64; id++) {
    ASSERT_TRUE(s1->Put(kv::MakeKey(id), kv::MakeValue(id, 1024)).ok());
    ASSERT_TRUE(s2->Put(kv::MakeKey(id), kv::MakeValue(id, 1024)).ok());
  }
  for (uint64_t id = 0; id < 64; id += 3) {
    std::string v1, v2;
    ASSERT_TRUE(s1->Get(kv::MakeKey(id), &v1).ok());
    kv::ReadHandle h = s2->ReadAsync(kv::MakeKey(id), &v2);
    ASSERT_TRUE(h.Wait().ok());
    EXPECT_EQ(v1, v2);
  }
  EXPECT_EQ(c1.NowNanos(), c2.NowNanos())
      << "ReadAsync+Wait must replay the sync Get timeline";
  ASSERT_TRUE(s1->Close().ok());
  ASSERT_TRUE(s2->Close().ok());
}

// MultiGet's acceptance property: with channels and read_queue_depth, a
// uniform batch of lookups finishes in strictly less simulated device
// time than sequential Gets, with identical returned values —
// deterministically.
TEST(MultiGetTest, FanOutCompressesVirtualTime) {
  auto run = [](int channels, int read_qd, int64_t* read_phase_ns,
                uint32_t* checksum) {
    sim::SimClock clock;
    ssd::SsdDevice ssd(SmallSsd(channels), &clock);
    fs::SimpleFs fs(&ssd, {});
    kv::EngineOptions options;
    options.engine = "alog";
    options.fs = &fs;
    options.clock = &clock;
    options.params = {{"segment_bytes", std::to_string(4 << 20)},
                      {"read_queue_depth", std::to_string(read_qd)}};
    auto opened = kv::OpenStore(options);
    ASSERT_TRUE(opened.ok());
    auto store = *std::move(opened);
    for (uint64_t id = 0; id < 128; id++) {
      ASSERT_TRUE(store->Put(kv::MakeKey(id), kv::MakeValue(id, 2048)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());

    std::vector<std::string> keys;
    for (uint64_t id = 0; id < 128; id += 1) {
      keys.push_back(kv::MakeKey((id * 37) % 128));
    }
    keys.push_back("no-such-key");  // misses cost no device time
    std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<std::string> values;
    const int64_t t0 = clock.NowNanos();
    const std::vector<Status> statuses = store->MultiGet(views, &values);
    *read_phase_ns = clock.NowNanos() - t0;
    *checksum = 0;
    for (size_t i = 0; i + 1 < statuses.size(); i++) {
      ASSERT_TRUE(statuses[i].ok()) << i;
      *checksum = Crc32c(*checksum, values[i].data(), values[i].size());
    }
    EXPECT_TRUE(statuses.back().IsNotFound());
    ASSERT_TRUE(store->Close().ok());
  };

  int64_t seq_ns = 0, fan_ns = 0, repeat_ns = 0;
  uint32_t seq_sum = 0, fan_sum = 0, repeat_sum = 0;
  run(4, 1, &seq_ns, &seq_sum);   // read_queue_depth=1 IS sequential Gets
  run(4, 8, &fan_ns, &fan_sum);
  EXPECT_LT(fan_ns, seq_ns)
      << "4-channel read_queue_depth=8 must beat sequential gets";
  EXPECT_EQ(fan_sum, seq_sum) << "values must not depend on timing";
  run(4, 8, &repeat_ns, &repeat_sum);  // virtual-time determinism
  EXPECT_EQ(repeat_ns, fan_ns);
  EXPECT_EQ(repeat_sum, fan_sum);
}

// ---- Completion callbacks (push-style handles) ------------------------
//
// WriteHandle/ReadHandle::OnComplete registers a one-shot callback that
// fires with the operation's status EXACTLY ONCE: inline at registration
// if the handle is already complete, otherwise inside the Wait() that
// joins the completion time into the clock — i.e. on the WAITER's
// thread, after the clock has absorbed the operation's virtual latency.
// A handle dropped without Wait() safe-joins in its destructor (performs
// the clock join and fires the pending callback) rather than erroring;
// that choice is documented on the class in kv/kvstore.h and pinned by
// DroppedHandleSafeJoinsAndFires below.

struct TimedAlogHarness {
  sim::SimClock clock;
  std::unique_ptr<ssd::SsdDevice> ssd;
  std::unique_ptr<fs::SimpleFs> fs;
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<TimedAlogHarness> MakeTimedAlog() {
  auto h = std::make_unique<TimedAlogHarness>();
  h->ssd = std::make_unique<ssd::SsdDevice>(SmallSsd(2), &h->clock);
  h->fs = std::make_unique<fs::SimpleFs>(h->ssd.get(), fs::FsOptions{});
  kv::EngineOptions options;
  options.engine = "alog";
  options.fs = h->fs.get();
  options.clock = &h->clock;
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

TEST(CompletionCallbackTest, FiresExactlyOnceInsideWait) {
  auto h = MakeTimedAlog();
  kv::WriteBatch batch;
  batch.Put("k", std::string(2048, 'v'));
  int fires = 0;
  {
    kv::WriteHandle handle = h->store->WriteAsync(batch);
    ASSERT_FALSE(handle.complete()) << "clock join must be deferred";
    Status seen;
    handle.OnComplete([&](const Status& s) {
      fires++;
      seen = s;
    });
    EXPECT_EQ(fires, 0) << "pending handle must not fire at registration";
    const int64_t complete_ns = handle.complete_ns();
    ASSERT_TRUE(handle.Wait().ok());
    EXPECT_EQ(fires, 1);
    EXPECT_TRUE(seen.ok());
    EXPECT_GE(h->clock.NowNanos(), complete_ns)
        << "the callback observes a clock past the commit's completion";
    ASSERT_TRUE(handle.Wait().ok());  // Wait is idempotent...
    EXPECT_EQ(fires, 1);              // ...and must not re-fire
  }
  EXPECT_EQ(fires, 1) << "nor may the destructor re-fire";
  ASSERT_TRUE(h->store->Close().ok());
}

TEST(CompletionCallbackTest, FiresInlineWhenAlreadyComplete) {
  // Without a clock the commit runs synchronously, so the handle is
  // complete when WriteAsync returns and the callback fires inline, on
  // the registering thread.
  block::MemoryBlockDevice dev(4096, 1 << 13);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = "alog";
  options.fs = &fs;
  auto opened = kv::OpenStore(options);
  ASSERT_TRUE(opened.ok());
  auto store = *std::move(opened);
  kv::WriteBatch batch;
  batch.Put("k", "v");
  kv::WriteHandle handle = store->WriteAsync(batch);
  EXPECT_TRUE(handle.complete());
  int fires = 0;
  std::thread::id cb_thread;
  handle.OnComplete([&](const Status& s) {
    fires++;
    cb_thread = std::this_thread::get_id();
    EXPECT_TRUE(s.ok());
  });
  EXPECT_EQ(fires, 1) << "complete handle fires inline at registration";
  EXPECT_EQ(cb_thread, std::this_thread::get_id());
  ASSERT_TRUE(handle.Wait().ok());
  EXPECT_EQ(fires, 1);
  ASSERT_TRUE(store->Close().ok());
}

TEST(CompletionCallbackTest, FiresOnTheWaitersThread) {
  auto h = MakeTimedAlog();
  kv::WriteBatch batch;
  batch.Put("k", std::string(2048, 'v'));
  kv::WriteHandle handle = h->store->WriteAsync(batch);
  ASSERT_FALSE(handle.complete());
  int fires = 0;
  std::thread::id cb_thread;
  handle.OnComplete([&](const Status& s) {
    fires++;
    cb_thread = std::this_thread::get_id();
    EXPECT_TRUE(s.ok());
  });
  std::thread::id waiter_thread;
  std::thread waiter([&] {
    waiter_thread = std::this_thread::get_id();
    EXPECT_TRUE(handle.Wait().ok());
  });
  waiter.join();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(cb_thread, waiter_thread)
      << "a pending callback runs inside the Wait that joins the clock";
  EXPECT_NE(cb_thread, std::this_thread::get_id());
  ASSERT_TRUE(h->store->Close().ok());
}

TEST(CompletionCallbackTest, DroppedHandleSafeJoinsAndFires) {
  auto h = MakeTimedAlog();
  kv::WriteBatch batch;
  batch.Put("k", std::string(2048, 'v'));
  int fires = 0;
  int64_t complete_ns = 0;
  {
    kv::WriteHandle handle = h->store->WriteAsync(batch);
    ASSERT_FALSE(handle.complete());
    complete_ns = handle.complete_ns();
    handle.OnComplete([&](const Status& s) {
      fires++;
      EXPECT_TRUE(s.ok());
    });
    // Dropped without Wait: the destructor safe-joins.
  }
  EXPECT_EQ(fires, 1)
      << "destroying an un-waited handle must fire the pending callback";
  EXPECT_GE(h->clock.NowNanos(), complete_ns)
      << "the safe-join must not lose the commit's virtual latency";
  ASSERT_TRUE(h->store->Close().ok());
}

TEST(CompletionCallbackTest, ReadHandleCallbacksMirrorWriteHandles) {
  auto h = MakeTimedAlog();
  ASSERT_TRUE(h->store->Put("k", std::string(2048, 'v')).ok());
  ASSERT_TRUE(h->store->Flush().ok());
  std::string value;
  int fires = 0;
  {
    kv::ReadHandle handle = h->store->ReadAsync("k", &value);
    handle.OnComplete([&](const Status& s) {
      fires++;
      EXPECT_TRUE(s.ok());
    });
    // The callback travels with a move; the moved-from shell must not
    // fire it at destruction.
    kv::ReadHandle moved = std::move(handle);
    EXPECT_TRUE(moved.Wait().ok());
    EXPECT_EQ(fires, 1);
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(value, std::string(2048, 'v'))
      << "the value is filled at submission, like WriteAsync's effects";
  ASSERT_TRUE(h->store->Close().ok());
}

// ---- Background I/O separation ----------------------------------------

struct BgOutcome {
  int64_t foreground_ns = 0;       // clock at end of the write loop
  int64_t scheduled_busy_ns = 0;   // byte-driven backend work, all channels
  int64_t background_busy_ns = 0;  // busy time accounted to kBackground
  uint32_t checksum = 0;           // final contents
};

// Runs a maintenance-heavy write workload on `engine` with background_io
// on or off. The logical work (and therefore the device command stream)
// is identical in both modes; only the timeline attribution differs.
BgOutcome RunBackgroundWorkload(const std::string& engine,
                                std::map<std::string, std::string> params,
                                bool background_io) {
  BgOutcome out;
  sim::SimClock clock;
  ssd::SsdDevice ssd(SmallSsd(2), &clock);
  fs::SimpleFs fs(&ssd, {});
  kv::EngineOptions options;
  options.engine = engine;
  options.fs = &fs;
  options.clock = &clock;
  options.params = std::move(params);
  options.params["background_io"] = background_io ? "1" : "0";
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  for (uint64_t i = 0; i < 3000; i++) {
    batch.Clear();
    batch.Put(kv::MakeKey(i % 400), kv::MakeValue(i, 512));
    EXPECT_TRUE(store->Write(batch).ok());
  }
  out.foreground_ns = clock.NowNanos();

  EXPECT_TRUE(store->SettleBackgroundWork().ok());
  EXPECT_TRUE(store->Flush().ok());
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.checksum = Crc32c(out.checksum, it->key().data(), it->key().size());
    out.checksum =
        Crc32c(out.checksum, it->value().data(), it->value().size());
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_TRUE(store->Close().ok());
  for (const auto& ch : ssd.channel_stats()) {
    out.scheduled_busy_ns += ch.scheduled_ns;
    out.background_busy_ns +=
        ch.class_busy_ns[static_cast<int>(sim::IoClass::kBackground)];
  }
  return out;
}

// Maintenance-heavy params per engine: every run must actually trigger
// compaction / checkpoints / GC, or the separation would have nothing to
// separate and the strict inequalities below would be vacuous.
class BackgroundIoTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BackgroundIoTest, SeparationLowersForegroundTimeConservingWork) {
  const std::string engine = GetParam();
  std::map<std::string, std::string> params;
  if (engine == "lsm") {
    params = {{"memtable_bytes", std::to_string(32 << 10)},
              {"l1_target_bytes", std::to_string(128 << 10)},
              {"sst_target_bytes", std::to_string(64 << 10)}};
  } else if (engine == "btree") {
    params = {{"cache_bytes", std::to_string(64 << 10)},
              {"checkpoint_every_bytes", std::to_string(64 << 10)}};
  } else {
    params = {{"segment_bytes", std::to_string(64 << 10)},
              {"gc_trigger", "0.3"}};
  }
  const BgOutcome base = RunBackgroundWorkload(engine, params, false);
  const BgOutcome sep = RunBackgroundWorkload(engine, params, true);

  // The baseline attributes nothing to the background class; separation
  // must actually have moved work there.
  EXPECT_EQ(base.background_busy_ns, 0) << engine;
  EXPECT_GT(sep.background_busy_ns, 0) << engine;
  // Foreground commits stop absorbing maintenance device time...
  EXPECT_LT(sep.foreground_ns, base.foreground_ns) << engine;
  // ...but the device did exactly the same byte-driven work,
  EXPECT_EQ(sep.scheduled_busy_ns, base.scheduled_busy_ns) << engine;
  // ...and contents cannot depend on timeline attribution.
  EXPECT_EQ(sep.checksum, base.checksum) << engine;

  // Determinism: the separated run replays to the nanosecond.
  const BgOutcome again = RunBackgroundWorkload(engine, params, true);
  EXPECT_EQ(again.foreground_ns, sep.foreground_ns) << engine;
  EXPECT_EQ(again.checksum, sep.checksum) << engine;
}

INSTANTIATE_TEST_SUITE_P(Engines, BackgroundIoTest,
                         ::testing::Values("lsm", "btree", "alog"));

// ---- The sharded async commit path ------------------------------------

struct ShardedStack {
  sim::SimClock clock;
  std::unique_ptr<ssd::SsdDevice> ssd;
  std::unique_ptr<fs::SimpleFs> fs;
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<ShardedStack> MakeShardedStack(int channels,
                                               int queue_depth,
                                               int shards = 4) {
  auto s = std::make_unique<ShardedStack>();
  s->ssd = std::make_unique<ssd::SsdDevice>(SmallSsd(channels), &s->clock);
  s->fs = std::make_unique<fs::SimpleFs>(s->ssd.get(), fs::FsOptions{});
  kv::EngineOptions options;
  options.engine = "sharded";
  options.fs = s->fs.get();
  options.clock = &s->clock;
  options.params = {{"shards", std::to_string(shards)},
                    {"inner_engine", "alog"},
                    {"segment_bytes", std::to_string(1 << 20)},
                    // Workers off: the async path dispatches from the
                    // caller thread, keeping the timeline deterministic.
                    {"parallel_write", "0"},
                    {"queue_depth", std::to_string(queue_depth)}};
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  s->store = *std::move(opened);
  return s;
}

// Runs the same cross-shard batch workload and returns the final virtual
// time; `checksum` covers the full final contents.
int64_t RunBatchWorkload(ShardedStack* s, uint32_t* checksum) {
  kv::WriteBatch batch;
  for (uint64_t b = 0; b < 64; b++) {
    batch.Clear();
    for (uint64_t i = 0; i < 32; i++) {
      const uint64_t id = (b * 32 + i) % 512;
      batch.Put(kv::MakeKey(id), kv::MakeValue(b * 1000 + id, 512));
    }
    EXPECT_TRUE(s->store->Write(batch).ok());
  }
  EXPECT_TRUE(s->store->Flush().ok());
  *checksum = 0;
  auto it = s->store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    *checksum = Crc32c(*checksum, it->key().data(), it->key().size());
    *checksum = Crc32c(*checksum, it->value().data(), it->value().size());
  }
  EXPECT_TRUE(it->status().ok());
  return s->clock.NowNanos();
}

// The acceptance property of the async path: a multi-channel concurrent
// commit finishes earlier in simulated device time than the serialized
// equivalent, with identical final contents — deterministically.
TEST(ShardedAsyncTest, MultiChannelCommitCompressesVirtualTime) {
  uint32_t serial_sum, async_sum, repeat_sum;
  auto serial = MakeShardedStack(/*channels=*/1, /*queue_depth=*/1);
  const int64_t serial_ns = RunBatchWorkload(serial.get(), &serial_sum);
  ASSERT_TRUE(serial->store->Close().ok());

  auto async = MakeShardedStack(/*channels=*/4, /*queue_depth=*/8);
  const int64_t async_ns = RunBatchWorkload(async.get(), &async_sum);
  ASSERT_TRUE(async->store->Close().ok());

  EXPECT_LT(async_ns, serial_ns)
      << "4-channel queue_depth=8 must beat the serialized run";
  EXPECT_EQ(serial_sum, async_sum) << "contents must not depend on timing";

  // Virtual-time determinism: the async run replays to the nanosecond.
  auto again = MakeShardedStack(/*channels=*/4, /*queue_depth=*/8);
  EXPECT_EQ(RunBatchWorkload(again.get(), &repeat_sum), async_ns);
  EXPECT_EQ(repeat_sum, async_sum);
  ASSERT_TRUE(again->store->Close().ok());
}

// queue_depth bounds the overlap window: deeper queues can only help.
TEST(ShardedAsyncTest, DeeperQueuesNeverSlowTheVirtualTimeline) {
  uint32_t sum_prev = 0;
  int64_t prev_ns = 0;
  bool first = true;
  for (const int qd : {1, 2, 8}) {
    uint32_t sum;
    auto stack = MakeShardedStack(/*channels=*/4, qd);
    const int64_t ns = RunBatchWorkload(stack.get(), &sum);
    ASSERT_TRUE(stack->store->Close().ok());
    if (!first) {
      EXPECT_LE(ns, prev_ns) << "queue_depth=" << qd;
      EXPECT_EQ(sum, sum_prev);
    }
    prev_ns = ns;
    sum_prev = sum;
    first = false;
  }
}

// Multi-threaded async stress (the TSan target): several caller threads
// drive queue_depth>1 commits through the same sharded store over a
// multi-channel SSD. Lanes are thread-local, channel state is serialized
// below the filesystem's I/O mutex — no races, no lost writes.
TEST(ShardedAsyncTest, ConcurrentAsyncWritersStress) {
  auto stack = MakeShardedStack(/*channels=*/4, /*queue_depth=*/4,
                                /*shards=*/4);
  constexpr int kThreads = 4;
  constexpr uint64_t kBatches = 60;
  constexpr uint64_t kPerBatch = 16;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      kv::WriteBatch batch;
      for (uint64_t b = 0; b < kBatches; b++) {
        batch.Clear();
        for (uint64_t i = 0; i < kPerBatch; i++) {
          const uint64_t id = b * kPerBatch + i;
          batch.Put("t" + std::to_string(t) + "-" + kv::MakeKey(id),
                    kv::MakeValue(id, 256));
        }
        if (!stack->store->Write(batch).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  // Every thread's final values are present and intact.
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t id = 0; id < kBatches * kPerBatch; id += 37) {
      std::string value;
      ASSERT_TRUE(stack->store
                      ->Get("t" + std::to_string(t) + "-" + kv::MakeKey(id),
                            &value)
                      .ok())
          << "thread " << t << " id " << id;
      EXPECT_TRUE(kv::VerifyValue(value));
    }
  }
  ASSERT_TRUE(stack->store->Close().ok());
}

}  // namespace
}  // namespace ptsb
