// MonitorCore driven through a scripted in-memory port: no simulator, no
// threads. The fake plays both the transport (a K-shard pool with the
// threaded adapter's per-shard telescoping, report slots, a control
// channel log) and the clients (FAA draws, report writes), and can inject
// a client grant between a conversion's load and its CAS — the race the
// threaded runtime only hits nondeterministically. Every ledger identity
// is therefore checked against an exact, scripted number of grants.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <variant>
#include <vector>

#include "core/monitor_core.hpp"
#include "core/wire.hpp"

namespace haechi::core {
namespace {

using obs::EventType;

struct Event {
  obs::ActorKind kind;
  EventType type;
  std::uint32_t period;
  std::int64_t a;
  std::int64_t b;
  std::int64_t c;
};

class FakePort final : public MonitorPort {
 public:
  explicit FakePort(std::size_t shards)
      : words_(shards, 0), last_(shards, 0) {}

  // --- MonitorPort --------------------------------------------------------

  [[nodiscard]] SimTime Now() const override { return now; }
  [[nodiscard]] std::uint64_t ReadSlot(std::size_t slot) const override {
    return slots.at(slot);
  }
  void PrimeSlot(std::size_t slot, std::uint64_t packed) override {
    slots.at(slot) = packed;
  }
  PoolTouch SamplePool() override {
    PoolTouch seen;
    for (std::size_t s = 0; s < words_.size(); ++s) Witness(s, words_[s], seen);
    return seen;
  }
  PoolTouch ExchangePool(std::int64_t value) override {
    PoolTouch seen;
    for (std::size_t s = 0; s < words_.size(); ++s) {
      Witness(s, words_[s], seen);
      words_[s] = last_[s] = Share(value, s);
    }
    return seen;
  }
  PoolTouch InstallPool(std::int64_t value) override {
    PoolTouch seen;
    for (std::size_t s = 0; s < words_.size(); ++s) {
      std::int64_t expected = words_[s];
      // A scripted client FAA lands between the load and the CAS: the CAS
      // fails, re-witnesses the moved word, and the retry succeeds.
      if (auto it = inject_.find(s); it != inject_.end()) {
        Draw(s, it->second);
        inject_.erase(it);
      }
      while (words_[s] != expected) {
        expected = words_[s];
        ++convert_cas_retries;
      }
      Witness(s, expected, seen);
      words_[s] = last_[s] = Share(value, s);
    }
    return seen;
  }
  void Deliver(Channel channel, ClientId client,
               const ControlMsg& msg) override {
    delivered.push_back({channel, client, msg.index()});
  }
  void Emit(obs::ActorKind kind, EventType type, std::uint32_t period,
            std::int64_t a, std::int64_t b, std::int64_t c) override {
    events.push_back({kind, type, period, a, b, c});
  }

  // --- the scripted clients ------------------------------------------------

  /// A client FAA of `tokens` on shard `s` (the word may go negative).
  void Draw(std::size_t s, std::int64_t tokens) {
    words_.at(s) -= tokens;
    drawn += tokens;
  }
  /// Arms one client grant of `tokens` on shard `s`, landing inside the
  /// next conversion's CAS window for that shard.
  void InjectGrantDuringCas(std::size_t s, std::int64_t tokens) {
    inject_[s] = tokens;
  }
  /// A client report WRITE (the seq byte makes every write distinct).
  void Report(std::size_t slot, std::uint32_t period, std::uint64_t residual,
              std::uint64_t completed) {
    slots.at(slot) = PackReport(period, residual, completed, ++seq_);
  }

  [[nodiscard]] std::int64_t Word(std::size_t s) const { return words_.at(s); }
  [[nodiscard]] std::int64_t PoolSum() const {
    std::int64_t sum = 0;
    for (const std::int64_t w : words_) sum += w;
    return sum;
  }
  [[nodiscard]] std::vector<Event> EventsOf(EventType type) const {
    std::vector<Event> out;
    for (const Event& e : events) {
      if (e.type == type) out.push_back(e);
    }
    return out;
  }

  struct Delivery {
    Channel channel;
    ClientId client;
    std::size_t kind;  // ControlMsg alternative index
  };

  SimTime now = 0;
  std::array<std::uint64_t, MonitorCore::kMaxClients> slots{};
  std::vector<Event> events;
  std::vector<Delivery> delivered;
  std::int64_t drawn = 0;
  std::uint64_t convert_cas_retries = 0;

 private:
  void Witness(std::size_t s, std::int64_t raw, PoolTouch& seen) {
    seen.raw += raw;
    seen.granted += last_[s] - raw;
    last_[s] = raw;
  }
  [[nodiscard]] std::int64_t Share(std::int64_t total, std::size_t s) const {
    const auto n = static_cast<std::int64_t>(words_.size());
    if (total <= 0) return 0;
    return total / n + (static_cast<std::int64_t>(s) < total % n ? 1 : 0);
  }

  std::vector<std::int64_t> words_;
  std::vector<std::int64_t> last_;
  std::map<std::size_t, std::int64_t> inject_;
  std::uint8_t seq_ = 0;
};

/// Opens the protected API a transport adapter would call; every monitor
/// here has 10'000 tokens of capacity per period.
class ScriptedCore final : public MonitorCore {
 public:
  ScriptedCore(MonitorPort& port, const QosConfig& config)
      : MonitorCore(port, config, /*global=*/10'000, /*local=*/10'000) {}
  using MonitorCore::AdmitClient;
  using MonitorCore::CheckTick;
  using MonitorCore::StartPeriod;
};

constexpr std::size_t kReportRequest = 1;  // ControlMsg alternative index

/// 1 s periods, a 1 ms check interval, no lease, no checkpoints.
QosConfig Config() {
  QosConfig config;
  config.period = kSecond;
  config.check_interval = kMillisecond;
  config.report_interval = kMillisecond;
  config.checkpoint_every_periods = 0;
  return config;
}

void ExpectConserved(const MonitorCore::PeriodLedger& l) {
  EXPECT_EQ(l.initial_pool + l.minted + l.absorbed - l.granted - l.lent,
            l.end_pool)
      << "period " << l.period;
}

MonitorPort::Channel ChannelOf(int& endpoint) { return &endpoint; }

TEST(MonitorCoreTest, ShardedBoundaryAndConversionStayLedgerExact) {
  FakePort port(/*shards=*/4);
  ScriptedCore core(port, Config());
  int a = 0;
  int b = 0;
  ASSERT_TRUE(core.AdmitClient(MakeClientId(0), 2000, 0, ChannelOf(a)).ok());
  ASSERT_TRUE(core.AdmitClient(MakeClientId(1), 1000, 0, ChannelOf(b)).ok());

  core.StartPeriod();
  ASSERT_EQ(core.InitialPool(), 7000);
  // The boundary exchange spread the pool evenly over the shards.
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(port.Word(s), 1750);

  // Clients draw from their home shards; the first tick sees the drop (S2),
  // asks everyone to report and converts in the same tick. One shard's
  // conversion CAS loses to a grant that lands inside its window.
  port.Draw(0, 300);
  port.Draw(3, 200);
  port.InjectGrantDuringCas(2, 40);
  port.now = Millis(100);
  core.CheckTick();
  ASSERT_TRUE(core.ReportingActive());
  EXPECT_EQ(port.convert_cas_retries, 1u);

  // The conversion target: min(C*(T-t)/T, C - U) - L - unreported grants
  // = min(9000, 10000) - 3000 (both slots still primed) - 500 = 5500. The
  // grant racing the CAS is witnessed, not overwritten.
  const auto converts = port.EventsOf(EventType::kTokenConvert);
  ASSERT_EQ(converts.size(), 1u);
  EXPECT_EQ(converts[0].a, 7000 - 300 - 200 - 40);  // witnessed pre-install
  EXPECT_EQ(converts[0].b, 5500);
  EXPECT_EQ(port.PoolSum(), 5500);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(port.Word(s), 1375);

  // More draws, some overdrawing a shard, then the period boundary.
  port.Draw(1, 1400);
  port.Draw(2, 60);
  port.now = kSecond;
  core.StartPeriod();

  const MonitorCore::PeriodLedger& p1 = core.ledger().front();
  EXPECT_EQ(p1.granted, port.drawn);
  EXPECT_EQ(p1.end_pool, 5500 - 1400 - 60);
  EXPECT_EQ(p1.minted, 5500 - (7000 - 540));
  ExpectConserved(p1);
  const auto ends = port.EventsOf(EventType::kMonitorPeriodEnd);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].a, p1.end_pool);
  EXPECT_EQ(ends[0].c, p1.granted);
}

TEST(MonitorCoreTest, ConversionCarriesTheBorrowCredit) {
  FakePort port(/*shards=*/1);
  ScriptedCore core(port, Config());
  int a = 0;
  ASSERT_TRUE(core.AdmitClient(MakeClientId(0), 4000, 0, ChannelOf(a)).ok());
  core.StartPeriod();
  ASSERT_EQ(core.InitialPool(), 6000);

  // A first draw trips S2; the tick converts with no credit yet:
  // min(10000 * 0.999, 10000) - 4000 (L, the primed slot) - 100 = 5890.
  port.Draw(0, 100);
  port.now = Millis(1);
  core.CheckTick();
  ASSERT_TRUE(core.ReportingActive());

  // A peer lends this node 700 tokens, and it lends 200 to another; the
  // net credit (+500) must survive the next conversion overwrite.
  core.AbsorbTokens(700, /*peer=*/1);
  EXPECT_EQ(core.LendTokens(200, /*peer=*/2), 200);
  EXPECT_EQ(port.PoolSum(), 5890 + 700 - 200);

  // The client reports 3000 of its reservation left and 1000 done, and
  // draws again.
  port.Report(0, core.CurrentPeriod(), 3000, 1000);
  port.Draw(0, 50);
  port.now = Millis(500);
  core.CheckTick();

  // min(10000 * 0.5, 10000 - 1000) - 3000 - 150 (grants of the last checks,
  // not yet visible in reports) + 500 = 2350.
  const auto converts = port.EventsOf(EventType::kTokenConvert);
  ASSERT_EQ(converts.size(), 2u);
  EXPECT_EQ(converts[0].b, 5890);
  EXPECT_EQ(converts[1].b, 2350);
  EXPECT_EQ(port.convert_cas_retries, 0u);

  port.now = kSecond;
  core.StartPeriod();
  const MonitorCore::PeriodLedger& p1 = core.ledger().front();
  EXPECT_EQ(p1.absorbed, 700);
  EXPECT_EQ(p1.lent, 200);
  EXPECT_EQ(p1.granted, port.drawn);
  ExpectConserved(p1);
  EXPECT_EQ(core.stats().absorbed_tokens, 700);
  EXPECT_EQ(core.stats().lent_tokens, 200);

  // The credit is per period: the next conversion starts from zero.
  port.Draw(0, 10);
  port.Report(0, core.CurrentPeriod(), 4000, 0);
  port.now = kSecond + Millis(500);
  core.CheckTick();
  const auto later = port.EventsOf(EventType::kTokenConvert);
  ASSERT_EQ(later.size(), 3u);
  EXPECT_EQ(later[2].b, 5000 - 4000 - 10);
}

TEST(MonitorCoreTest, LeaseExpiryDeclaresDeadAndReclaims) {
  FakePort port(/*shards=*/1);
  QosConfig config = Config();
  config.report_lease_intervals = 4;
  ScriptedCore core(port, config);
  std::vector<ClientId> dead;
  core.SetClientDeadCallback([&](ClientId id) { dead.push_back(id); });
  int live_ep = 0;
  int silent_ep = 0;
  const ClientId live = MakeClientId(0);
  const ClientId silent = MakeClientId(1);
  const auto live_slot = core.AdmitClient(live, 2000, 0, ChannelOf(live_ep));
  const auto silent_slot =
      core.AdmitClient(silent, 1500, 0, ChannelOf(silent_ep));
  ASSERT_TRUE(live_slot.ok());
  ASSERT_TRUE(silent_slot.ok());
  core.StartPeriod();

  // One draw trips S2; from then on only `live` keeps writing its slot.
  port.Draw(0, 10);
  for (int tick = 1; tick <= 4; ++tick) {
    port.Report(live_slot.value(), core.CurrentPeriod(), 1900, 100);
    port.now = Millis(tick);
    core.CheckTick();
    if (tick == 2) {
      // Half-lease nudge: one ReportRequest resent to the silent client.
      EXPECT_EQ(core.stats().report_request_resends, 1u);
      EXPECT_EQ(port.delivered.back().channel, ChannelOf(silent_ep));
      EXPECT_EQ(port.delivered.back().kind, kReportRequest);
    }
    if (tick < 4) {
      EXPECT_TRUE(dead.empty());
    }
  }

  // The fourth silent check declares it dead: its primed slot (full
  // reservation outstanding) is reclaimed, admission is released, and
  // conversion re-mints the claim for everyone else at once.
  ASSERT_EQ(dead, std::vector<ClientId>{silent});
  EXPECT_EQ(core.stats().lease_expirations, 1u);
  EXPECT_EQ(core.stats().reclaimed_tokens, 1500);
  EXPECT_EQ(core.ledger().back().reclaimed, 1500);
  EXPECT_FALSE(core.ReservationOf(silent).ok());
  EXPECT_EQ(core.admission().TotalReserved(), 2000);
  const auto expiries = port.EventsOf(EventType::kLeaseExpire);
  ASSERT_EQ(expiries.size(), 1u);
  EXPECT_EQ(expiries[0].a, Raw(silent));
  EXPECT_EQ(expiries[0].b, 1500);
  // Four tick conversions plus the one DeclareDead runs first on the last
  // tick; its target no longer counts the dead client's 1500 in L:
  // min(10000 * 0.996, 10000 - 100) - 1900 (the live residual) = 8000.
  const auto converts = port.EventsOf(EventType::kTokenConvert);
  ASSERT_EQ(converts.size(), 5u);
  EXPECT_EQ(converts[2].b, 9900 - 1900 - 1500 - 10);
  EXPECT_EQ(converts[3].b, 8000);

  // The dead client's slot sits out the rest of the period in quarantine:
  // a newcomer admitted now gets a fresh slot, one admitted after the
  // boundary recycles it.
  int x = 0;
  const auto fresh = core.AdmitClient(MakeClientId(2), 100, 0, ChannelOf(x));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value(), silent_slot.value());
  port.now = kSecond;
  core.StartPeriod();
  ExpectConserved(core.ledger().front());
  const auto recycled =
      core.AdmitClient(MakeClientId(3), 100, 0, ChannelOf(x));
  ASSERT_TRUE(recycled.ok());
  EXPECT_EQ(recycled.value(), silent_slot.value());
}

}  // namespace
}  // namespace haechi::core
