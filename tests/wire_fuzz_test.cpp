// Wire robustness: every protocol message decoder must either round-trip
// its own encoding exactly or reject malformed input with DecodeError —
// never crash, loop, or over-allocate. Also: replicas fed random garbage
// from a "byzantine network" must survive (drop) it.
#include <gtest/gtest.h>

#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "harness/cluster.hpp"
#include "kvstore/ops.hpp"
#include "multicast/gc_floor.hpp"
#include "paxos/messages.hpp"
#include "paxos/multipaxos.hpp"
#include "skeen/skeen.hpp"
#include "test_util.hpp"
#include "wbcast/messages.hpp"

namespace wbam {
namespace {

AppMessage sample_msg() {
    return make_app_message(make_msg_id(9, 3), {0, 2, 5}, Bytes{1, 2, 3});
}

template <typename T>
void expect_roundtrip(const T& in) {
    const Bytes wire = codec::encode_to_bytes(in);
    const T out = codec::decode_from_bytes<T>(wire);
    // Round-trip must consume the whole buffer and re-encode identically.
    EXPECT_EQ(codec::encode_to_bytes(out), wire);
}

TEST(WireRoundTripTest, WbcastMessages) {
    expect_roundtrip(wbcast::AcceptMsg{sample_msg(), 2, Ballot{3, 7},
                                       Timestamp{11, 2}});
    expect_roundtrip(wbcast::AcceptAckMsg{
        1, {{0, Ballot{1, 0}}, {2, Ballot{4, 8}}}});
    expect_roundtrip(wbcast::DeliverMsg{sample_msg(), Ballot{2, 1},
                                        Timestamp{5, 0}, Timestamp{9, 2}});
    expect_roundtrip(wbcast::NewLeaderMsg{Ballot{6, 4}});
    expect_roundtrip(wbcast::NewLeaderAckMsg{
        Ballot{6, 4}, Ballot{5, 1}, 42,
        {wbcast::EntryState{sample_msg(), 2, Timestamp{1, 0}, Timestamp{2, 1},
                            false},
         wbcast::EntryState{sample_msg(), 3, Timestamp{3, 0}, Timestamp{4, 1},
                            true}}});
    expect_roundtrip(wbcast::NewStateMsg{Ballot{6, 4}, 17, {}});
    expect_roundtrip(wbcast::NewStateAckMsg{Ballot{6, 4}});
    expect_roundtrip(wbcast::GcStatusMsg{Timestamp{100, 1}});
    expect_roundtrip(wbcast::GcPruneMsg{Timestamp{90, 0}});
}

TEST(WireRoundTripTest, PaxosMessages) {
    const paxos::Command cmd{7, Bytes{9, 9, 9}};
    expect_roundtrip(paxos::P1aMsg{Ballot{2, 3}, 5});
    expect_roundtrip(paxos::P1bMsg{
        Ballot{2, 3},
        {paxos::AcceptedEntry{4, Ballot{1, 0}, cmd}},
        {paxos::ChosenEntry{2, cmd}}});
    expect_roundtrip(paxos::P2aMsg{Ballot{2, 3}, 9, cmd});
    expect_roundtrip(paxos::P2bMsg{Ballot{2, 3}, 9});
    expect_roundtrip(paxos::ChosenMsg{9, cmd});
    expect_roundtrip(paxos::NackMsg{Ballot{8, 1}});
}

TEST(WireRoundTripTest, BaselineMessages) {
    expect_roundtrip(skeen::ProposeMsg{sample_msg(), 1, Timestamp{4, 1}});
    expect_roundtrip(ftskeen::ProposeTsMsg{sample_msg(), 0, Timestamp{2, 0}});
    expect_roundtrip(ftskeen::ProposeCmd{sample_msg()});
    expect_roundtrip(ftskeen::CommitCmd{7, Timestamp{3, 1}});
    expect_roundtrip(fastcast::SpecProposeMsg{sample_msg(), 2, Timestamp{8, 2}});
    expect_roundtrip(fastcast::ConfirmMsg{7, 2, Timestamp{8, 2}});
    expect_roundtrip(fastcast::DeliverFloorMsg{Timestamp{12, 1}});
    expect_roundtrip(fastcast::ProposeCmd{sample_msg(), Timestamp{1, 0}});
    expect_roundtrip(fastcast::CommitCmd{
        7, {{0, Timestamp{1, 0}}, {2, Timestamp{2, 2}}}});
}

TEST(WireRoundTripTest, KvOps) {
    expect_roundtrip(kv::KvOp{kv::OpKind::put, "alpha", "", 42});
    expect_roundtrip(kv::KvOp{kv::OpKind::add, "k7", "", -3});
    expect_roundtrip(kv::KvOp{kv::OpKind::get, "hot", "", 0});
    expect_roundtrip(kv::KvOp{kv::OpKind::transfer, "from", "to", 100});
    expect_roundtrip(kv::KvOp{kv::OpKind::put_blob, "b", "", 0,
                              BufferSlice{Bytes{1, 2, 3}}});
}

// KvOps come off the same hostile wire as protocol messages, so decode
// must reject ops the store could not place or apply: unknown kinds,
// empty keys (no shard placement), transfers missing their credit side.
TEST(WireRoundTripTest, KvOpMalformedRejected) {
    Bytes wire =
        codec::encode_to_bytes(kv::KvOp{kv::OpKind::put, "k", "", 1});
    wire[0] = 9;  // kind is the first byte; 9 is out of range
    EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(wire),
                 codec::DecodeError);

    const Bytes empty_key =
        codec::encode_to_bytes(kv::KvOp{kv::OpKind::put, "", "", 1});
    EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(empty_key),
                 codec::DecodeError);

    const Bytes half_transfer =
        codec::encode_to_bytes(kv::KvOp{kv::OpKind::transfer, "from", "", 5});
    EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(half_transfer),
                 codec::DecodeError);
}

TEST(WireRoundTripTest, KvOpTruncationsRejected) {
    const Bytes wire = codec::encode_to_bytes(
        kv::KvOp{kv::OpKind::transfer, "acct-a", "acct-b", 17});
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(prefix),
                     codec::DecodeError)
            << "cut at " << cut;
    }
}

// Truncations of valid encodings must throw, never crash.
TEST(WireRoundTripTest, TruncationsRejected) {
    const Bytes wire = codec::encode_to_bytes(wbcast::AcceptMsg{
        sample_msg(), 2, Ballot{3, 7}, Timestamp{11, 2}});
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(codec::decode_from_bytes<wbcast::AcceptMsg>(prefix),
                     codec::DecodeError)
            << "cut at " << cut;
    }
}

// Every proper prefix of a valid encoding must throw DecodeError: a cut
// at each field boundary and inside each field.
template <typename T>
void expect_truncations_rejected(const T& in) {
    const Bytes wire = codec::encode_to_bytes(in);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(codec::decode_from_bytes<T>(prefix), codec::DecodeError)
            << "cut at " << cut << " of " << wire.size();
    }
}

// The shared GC bodies (multicast/gc_floor.hpp) carry the consensus log's
// applied progress next to the delivered floor; wbcast sends zeros there.
TEST(WireRoundTripTest, GcBodiesWithAppliedProgress) {
    const GcStatusMsg statuses[] = {
        {Timestamp{100, 1}, 0},
        {Timestamp{100, 1}, 1ull << 40},
        {bottom_ts, 7},
    };
    const GcPruneMsg prunes[] = {
        {Timestamp{90, 0}, 0, 0},
        {Timestamp{90, 2}, 77, 1ull << 33},
        {bottom_ts, 5, 9},
    };
    for (const GcStatusMsg& m : statuses) {
        expect_roundtrip(m);
        const auto out = codec::decode_from_bytes<GcStatusMsg>(
            codec::encode_to_bytes(m));
        EXPECT_EQ(out.max_delivered_gts, m.max_delivered_gts);
        EXPECT_EQ(out.applied_upto, m.applied_upto);
        expect_truncations_rejected(m);
    }
    for (const GcPruneMsg& m : prunes) {
        expect_roundtrip(m);
        const auto out =
            codec::decode_from_bytes<GcPruneMsg>(codec::encode_to_bytes(m));
        EXPECT_EQ(out.floor, m.floor);
        EXPECT_EQ(out.applied_floor, m.applied_floor);
        EXPECT_EQ(out.applied_upto, m.applied_upto);
        expect_truncations_rejected(m);
    }
}

// Collects what an engine sends; time stands still.
class SinkContext final : public Context {
public:
    ProcessId self() const override { return 0; }
    TimePoint now() const override { return milliseconds(1); }
    void send(ProcessId, BufferSlice) override { ++sends; }
    TimerId set_timer(Duration) override { return invalid_timer; }
    void cancel_timer(TimerId) override {}
    Rng& rng() override { return rng_; }

    std::size_t sends = 0;

private:
    Rng rng_{1};
};

// Paxos types 6 and 7 (the engine's retired GC status/prune pair) stay
// reserved: an envelope of either, with its old body or with junk, is
// consumed without effect and without throwing.
TEST(WireRoundTripTest, RetiredPaxosTypesConsumedWithoutEffect) {
    SinkContext ctx;
    paxos::MultiPaxos engine({0, 1, 2}, 2,
                             [](Context&, std::uint64_t,
                                const paxos::Command&) {});
    engine.start(ctx);
    for (const std::uint8_t type : {std::uint8_t{6}, std::uint8_t{7}}) {
        // The old bodies were one or two varints; then none, then junk.
        codec::Writer w;
        w.varint(40);
        w.varint(50);
        const Bytes bodies[] = {std::move(w).take(), Bytes{}, Bytes{0xff}};
        for (const Bytes& body : bodies) {
            codec::Writer env;
            env.u8(static_cast<std::uint8_t>(codec::Module::paxos));
            env.u8(type);
            env.varint(invalid_msg);
            Bytes wire = std::move(env).take();
            wire.insert(wire.end(), body.begin(), body.end());
            codec::EnvelopeView view(wire);
            bool consumed = false;
            EXPECT_NO_THROW(consumed = engine.handle_message(ctx, 1, view));
            EXPECT_TRUE(consumed) << "type " << int{type};
        }
    }
    EXPECT_EQ(ctx.sends, 0u);
    EXPECT_TRUE(engine.is_leader());
    EXPECT_EQ(engine.prune_floor(), 0u);
    EXPECT_EQ(engine.pruned_upto(), 0u);
    EXPECT_EQ(engine.applied_upto(), 0u);
    EXPECT_EQ(engine.chosen_count(), 0u);
}

// Slice fuzzing: random (including truncated and overlapping) subslices of
// valid wire images fed through a backed codec::Reader must either decode
// or throw DecodeError — never crash, read out of bounds, or return views
// outside the slice they were cut from.
class SliceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceFuzz, RandomSubslicesNeverEscapeBounds) {
    Rng rng(GetParam() * 104729);
    std::size_t benchmark_sink = 0;
    const Bytes wire_bytes =
        codec::encode_to_bytes(wbcast::AcceptMsg{sample_msg(), 2, Ballot{3, 7},
                                                 Timestamp{11, 2}});
    const Buffer frozen{Bytes(wire_bytes)};
    const BufferSlice whole(frozen);
    for (int trial = 0; trial < 500; ++trial) {
        // Overlapping random windows over the same storage.
        const auto off = static_cast<std::size_t>(
            rng.next_below(frozen.size() + 1));
        const auto len = static_cast<std::size_t>(
            rng.next_below(frozen.size() + 8));  // may exceed; must clamp
        const BufferSlice s = whole.subslice(off, len);
        ASSERT_LE(s.size(), frozen.size() - off);
        codec::Reader r(s);
        try {
            const auto out = wbcast::AcceptMsg::decode(r);
            benchmark_sink += out.msg.dests.size();  // keep the decode alive
            // The whole window decodes exactly when it is the full image.
            if (off == 0 && s.size() == frozen.size()) {
                EXPECT_EQ(out.msg.id, sample_msg().id);
                EXPECT_TRUE(r.done());
            }
        } catch (const codec::DecodeError&) {
            // expected for truncated/offset windows
        }
    }
    (void)benchmark_sink;
}

TEST_P(SliceFuzz, AliasingReadsStayInsideTheirSlice) {
    Rng rng(GetParam() * 7907);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes junk(rng.next_below(64) + 8);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
        const Buffer frozen(std::move(junk));
        const auto off =
            static_cast<std::size_t>(rng.next_below(frozen.size()));
        const BufferSlice window = BufferSlice(frozen).subslice(
            off, static_cast<std::size_t>(rng.next_below(frozen.size())));
        codec::Reader r(window);
        try {
            while (!r.done()) {
                const BufferSlice view = r.bytes_slice();
                // Aliased views must point inside the window they came from.
                EXPECT_GE(view.data(), window.data());
                EXPECT_LE(view.data() + view.size(),
                          window.data() + window.size());
                EXPECT_TRUE(same_storage(view, window));
            }
        } catch (const codec::DecodeError&) {
            // expected on malformed input
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceFuzz, ::testing::Values(1, 2, 3, 4, 5));

// Module::batch is a retired tag: nothing sends a batch frame, and no
// runtime unwraps one any more. Every row's replicas get well-formed
// frames of the old format wrapping a valid client request, plus random
// tag-5 junk, mid-run. The wrapped request is never dispatched (its
// message is never ordered or delivered), nothing crashes, and the run
// still checks out.
Buffer former_batch_frame(const std::vector<Buffer>& envelopes) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(codec::Module::batch));
    w.u8(0);
    w.varint(invalid_msg);
    w.u32(static_cast<std::uint32_t>(envelopes.size()));
    for (const Buffer& e : envelopes) {
        w.varint(e.size());
        w.raw(e.data(), e.size());
    }
    return std::move(w).take_buffer();
}

class RetiredBatchTagIsDropped
    : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(RetiredBatchTagIsDropped, WrappedEnvelopeIsNeverDispatched) {
    harness::ClusterConfig cfg;
    cfg.kind = GetParam();
    cfg.groups = 2;
    cfg.group_size = cfg.kind == harness::ProtocolKind::skeen ? 1 : 3;
    cfg.clients = 1;
    harness::Cluster c(cfg);
    c.multicast_at(0, 0, {0, 1});
    const ProcessId client = c.topo().client(0);
    // A request the client never multicast through the harness: delivered
    // anywhere, it would show that a frame was unwrapped.
    const AppMessage smuggled =
        make_app_message(make_msg_id(client, 1000), {0, 1}, Bytes{0x5b});
    c.world().at(microseconds(500), [&c, client, &smuggled] {
        Rng rng(23);
        const Buffer request = encode_multicast_request(smuggled);
        for (ProcessId p = 0; p < c.topo().num_replicas(); ++p) {
            c.world().send_from(client, p, former_batch_frame({request}));
            c.world().send_from(client, p,
                                former_batch_frame({request, request}));
            for (int i = 0; i < 20; ++i) {
                Bytes junk(rng.next_below(40) + 1);
                junk[0] = static_cast<std::uint8_t>(codec::Module::batch);
                for (std::size_t b = 1; b < junk.size(); ++b)
                    junk[b] = static_cast<std::uint8_t>(rng.next_u64());
                c.world().send_from(client, p, std::move(junk));
            }
        }
    });
    c.multicast_at(milliseconds(20), 0, {1});
    c.run_for(milliseconds(200));

    for (const auto& [replica, events] : c.log().deliveries())
        for (const DeliveryEvent& ev : events)
            EXPECT_NE(ev.msg, smuggled.id) << "p" << replica;
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_EQ(c.log().completed_count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllRows, RetiredBatchTagIsDropped,
                         ::testing::Values(harness::ProtocolKind::skeen,
                                           harness::ProtocolKind::wbcast,
                                           harness::ProtocolKind::ftskeen,
                                           harness::ProtocolKind::fastcast),
                         [](const auto& info) {
                             return testutil::row_name(info.param);
                         });

// A replica bombarded with random garbage bytes must neither crash nor
// corrupt an ongoing run. (Decode failures surface as DecodeError from
// on_message; the harness treats the message as dropped.)
class GarbageStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GarbageStorm, RepliasSurviveRandomBytes) {
    harness::ClusterConfig cfg;
    cfg.kind = harness::ProtocolKind::wbcast;
    cfg.groups = 2;
    cfg.clients = 1;
    cfg.seed = GetParam();
    harness::Cluster c(cfg);
    c.multicast_at(0, 0, {0, 1});
    // A client process sprays garbage at every replica mid-protocol.
    c.world().at(microseconds(500), [&c] {
        Rng rng(GetParam() * 17);
        auto& client = c.client(0);
        (void)client;
        for (ProcessId p = 0; p < c.topo().num_replicas(); ++p) {
            for (int i = 0; i < 20; ++i) {
                Bytes junk(rng.next_below(40));
                for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
                // Inject through a scripted client's context by scheduling
                // sends from the world (sender identity is irrelevant).
                c.world().send_from(c.topo().client(0), p, std::move(junk));
            }
        }
    });
    c.run_for(milliseconds(100));
    // Garbage is dropped at the runtime boundary; the protocol run itself
    // must be unaffected.
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_EQ(c.log().completed_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageStorm, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace wbam
