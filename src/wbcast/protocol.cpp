#include "wbcast/protocol.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "wal/records.hpp"

namespace wbam::wbcast {

namespace {
constexpr auto proto = codec::Module::proto;

std::uint8_t type_of(MsgType t) { return static_cast<std::uint8_t>(t); }

// --- WAL record bodies (wal::RecordType::wb_entry / wb_status) -------------
// wb_entry carries one message's durable ordering facts plus the logical
// clock at append time; the payload rides as the raw suffix so the hot
// path appends the retained wire slice without copying (wal/records.hpp
// convention). wb_status snapshots the ballots and clock at ballot
// transitions; `reset` marks the quorum-recompute points where the whole
// entry table was rebuilt, so replay clears before re-installing.

Bytes encode_wb_entry_meta(std::uint64_t clock, const AppMessage& m,
                           Phase phase, Timestamp lts, Timestamp gts,
                           bool compacted) {
    codec::Writer w;
    w.u64(clock);
    w.varint(static_cast<std::uint64_t>(phase));
    w.u64(lts.time);
    w.zigzag(lts.group);
    w.u64(gts.time);
    w.zigzag(gts.group);
    w.varint(compacted ? 1 : 0);
    w.u64(m.id);
    codec::write_field(w, m.dests);
    return std::move(w).take();
}

struct WbEntryRecord {
    std::uint64_t clock = 0;
    EntryState es;
};

WbEntryRecord decode_wb_entry(const BufferSlice& body) {
    codec::Reader r(body);
    WbEntryRecord rec;
    rec.clock = r.u64();
    rec.es.phase = static_cast<std::uint8_t>(r.varint());
    rec.es.lts.time = r.u64();
    rec.es.lts.group = static_cast<GroupId>(r.zigzag());
    rec.es.gts.time = r.u64();
    rec.es.gts.group = static_cast<GroupId>(r.zigzag());
    rec.es.compacted = r.varint() != 0;
    rec.es.msg.id = r.u64();
    codec::read_field(r, rec.es.msg.dests);
    rec.es.msg.payload = r.take_slice(r.remaining());
    return rec;
}

Bytes encode_wb_status(const Ballot& cballot, const Ballot& ballot,
                       std::uint64_t clock, bool reset) {
    codec::Writer w;
    w.u64(cballot.round);
    w.zigzag(cballot.proc);
    w.u64(ballot.round);
    w.zigzag(ballot.proc);
    w.u64(clock);
    w.varint(reset ? 1 : 0);
    return std::move(w).take();
}

struct WbStatusRecord {
    Ballot cballot;
    Ballot ballot;
    std::uint64_t clock = 0;
    bool reset = false;
};

WbStatusRecord decode_wb_status(const BufferSlice& body) {
    codec::Reader r(body);
    WbStatusRecord rec;
    rec.cballot.round = r.u64();
    rec.cballot.proc = static_cast<ProcessId>(r.zigzag());
    rec.ballot.round = r.u64();
    rec.ballot.proc = static_cast<ProcessId>(r.zigzag());
    rec.clock = r.u64();
    rec.reset = r.varint() != 0;
    r.expect_done();
    return rec;
}
}  // namespace

WbcastReplica::WbcastReplica(const Topology& topo, ProcessId pid,
                             DeliverySink sink, ReplicaConfig cfg)
    : ReplicaCore("wbcast",
                  GcTags{type_of(MsgType::gc_status),
                         type_of(MsgType::gc_prune)},
                  topo, pid, std::move(sink), cfg),
      elector_(topo.members_leader_first(g0_),
               elect::ElectorConfig{cfg.election_enabled,
                                    cfg.heartbeat_interval,
                                    cfg.suspect_timeout},
               [this](Context& ctx, ProcessId trusted) {
                   on_trust_change(ctx, trusted);
               }) {
    // All members bootstrap agreeing on a ballot led by the initial leader.
    cballot_ = ballot_ = Ballot{1, topo_.initial_leader(g0_)};
    status_ = pid_ == topo_.initial_leader(g0_) ? Status::leader
                                                : Status::follower;
}

void WbcastReplica::on_start(Context& ctx) {
    // A non-empty WAL means this is a crash-recovery restart: rebuild the
    // pre-crash state before any timer or message can observe it. A fresh
    // boot (empty log) keeps the constructor's bootstrap leadership.
    if (cfg_.wal && !cfg_.wal->recovered().empty()) replay_wal(ctx);
    elector_.start(ctx);
    retry_timer_ = ctx.set_timer(cfg_.retry_interval);
    arm_gc(ctx);
    // A restarted leader re-announces its undelivered commits; every
    // receiver (including our own self channel) dedups by watermark. A
    // restarted member instead asks the leader to re-establish it.
    if (status_ == Status::leader && cfg_.wal) try_deliver(ctx);
    if (awaiting_resync_) send_sync_req(ctx);
}

void WbcastReplica::dispatch_message(Context& ctx, ProcessId from,
                                     const BufferSlice& bytes) {
    codec::EnvelopeView env(bytes);
    if (elector_.handle_message(ctx, from, env)) return;
    if (env.module == codec::Module::client) {
        if (env.type != static_cast<std::uint8_t>(ClientMsgType::multicast))
            return;
        handle_multicast(ctx, AppMessage::decode(env.body));
        return;
    }
    if (env.module != proto) return;
    switch (static_cast<MsgType>(env.type)) {
        case MsgType::accept:
            handle_accept(ctx, from, AcceptMsg::decode(env.body));
            return;
        case MsgType::accept_ack:
            handle_accept_ack(ctx, from, env.about,
                              AcceptAckMsg::decode(env.body));
            return;
        case MsgType::deliver:
            handle_deliver(ctx, DeliverMsg::decode(env.body));
            return;
        case MsgType::newleader:
            handle_newleader(ctx, from, NewLeaderMsg::decode(env.body));
            return;
        case MsgType::newleader_ack:
            handle_newleader_ack(ctx, from, NewLeaderAckMsg::decode(env.body));
            return;
        case MsgType::new_state:
            handle_new_state(ctx, from, NewStateMsg::decode(env.body));
            return;
        case MsgType::newstate_ack:
            handle_newstate_ack(ctx, from, NewStateAckMsg::decode(env.body));
            return;
        case MsgType::gc_status:
            handle_gc_status(from, GcStatusMsg::decode(env.body));
            return;
        case MsgType::gc_prune:
            note_prune(GcPruneMsg::decode(env.body));
            return;
        case MsgType::sync_req:
            handle_sync_req(ctx, from, SyncReqMsg::decode(env.body));
            return;
    }
}

// --- normal operation --------------------------------------------------------

void WbcastReplica::handle_multicast(Context& ctx, const AppMessage& m) {
    if (status_ != Status::leader) return;  // line 4 precondition
    if (!m.addressed_to(g0_)) return;
    Entry& e = entries_[m.id];
    e.last_activity = ctx.now();
    if (e.phase == Phase::start) {
        // Lines 5-8: assign the local timestamp under the current ballot.
        ctx.charge(cfg_.wbcast_multicast_cost);
        e.msg = m;
        stages_.record(obs::Stage::leader_receipt, m.submit_ts, ctx.now());
        clock_ += 1;
        e.lts = Timestamp{clock_, g0_};
        e.phase = Phase::proposed;
        const bool fresh = pending_by_lts_.emplace(e.lts, m.id).second;
        WBAM_ASSERT_MSG(fresh, "local timestamps must be unique at a process");
        // The assignment is externalized by the ACCEPT below; persisting it
        // (with the advanced clock) keeps a restarted leader from re-issuing
        // the same local timestamp for a different message (Invariant 1).
        log_entry(e);
    }
    // Line 9. On a duplicate MULTICAST (retry path) the stored timestamp is
    // re-sent unchanged, preserving Invariant 1 within this ballot.
    send_accept(ctx, e);
}

void WbcastReplica::send_accept(Context& ctx, const Entry& e) {
    std::vector<ProcessId> recipients;
    for (const GroupId g : e.msg.dests)
        for (const ProcessId p : topo_.members(g)) recipients.push_back(p);
    ctx.send_many(recipients,
                  codec::encode_envelope(proto, type_of(MsgType::accept),
                                         e.msg.id,
                                         AcceptMsg{e.msg, g0_, cballot_, e.lts}));
}

void WbcastReplica::handle_accept(Context& ctx, ProcessId, const AcceptMsg& a) {
    if (!a.msg.addressed_to(g0_)) return;
    ctx.charge(cfg_.wbcast_accept_cost);
    Entry& e = entries_[a.msg.id];
    e.last_activity = ctx.now();
    if (e.msg.id == invalid_msg) {
        e.msg = a.msg;
    } else if (e.msg.payload.empty() && !a.msg.payload.empty()) {
        // Fill in after compaction races. Compacted entries are skipped by
        // every later GC pass, so the refill must own exactly its payload
        // bytes — aliasing the ACCEPT envelope here would pin it forever.
        e.msg.payload = a.msg.payload.compact();
    }
    remote_leader_hint_[a.from_group] = a.ballot.leader();

    // Record the proposal; a higher ballot for the same group supersedes.
    const auto it = e.accepts.find(a.from_group);
    if (it == e.accepts.end()) {
        e.accepts.emplace(a.from_group, std::make_pair(a.ballot, a.lts));
    } else if (a.ballot > it->second.first) {
        it->second = {a.ballot, a.lts};
    } else if (a.ballot == it->second.first) {
        // Invariant 1: at most one local timestamp per (message, ballot).
        WBAM_ASSERT_MSG(a.lts == it->second.second,
                        "Invariant 1: conflicting ACCEPTs in one ballot");
    } else {
        return;  // stale ballot
    }

    // Line 10 trigger: an ACCEPT from every destination group.
    if (e.accepts.size() != e.msg.dests.size()) return;
    // Line 11 guards: normal status, and we participate in the ballot our
    // own group's proposal was made in.
    if (status_ == Status::recovering) return;
    const auto own = e.accepts.find(g0_);
    WBAM_ASSERT(own != e.accepts.end());
    if (own->second.first != cballot_) return;

    bool accepted_now = false;
    if (e.phase == Phase::start || e.phase == Phase::proposed) {
        // Lines 12-13: adopt our group's timestamp for m.
        drop_pending(e);
        e.lts = own->second.second;
        e.phase = Phase::accepted;
        const bool fresh = pending_by_lts_.emplace(e.lts, e.msg.id).second;
        WBAM_ASSERT_MSG(fresh, "accepted local timestamps must be unique");
        accepted_now = true;
    }
    // Line 14: speculative clock advance past the future global timestamp.
    // Safe even if some proposals come from deposed leaders: the clock may
    // always increase (§III).
    Timestamp max_lts;
    BallotVector vec;
    vec.reserve(e.accepts.size());
    for (const auto& [g, bal_lts] : e.accepts) {
        max_lts = std::max(max_lts, bal_lts.second);
        vec.emplace_back(g, bal_lts.first);
    }
    if (cfg_.wbcast_speculative_clock) clock_ = std::max(clock_, max_lts.time);
    // Persist the acceptance before the ack leaves: a quorum that counted
    // our ACCEPT_ACK must find the entry again after we restart, or the
    // NEWLEADER recompute could lose a committed message. Logged after the
    // speculative advance so the record's clock covers the future gts.
    if (accepted_now) {
        log_entry(e);
        stages_.record(obs::Stage::ts_agreed, e.msg.submit_ts, ctx.now());
    }
    // Lines 15-16: acknowledge to every proposing leader.
    std::vector<ProcessId> leaders;
    leaders.reserve(e.accepts.size());
    for (const auto& [g, bal_lts] : e.accepts)
        leaders.push_back(bal_lts.first.leader());
    ctx.send_many(leaders, codec::encode_envelope(
                               proto, type_of(MsgType::accept_ack), e.msg.id,
                               AcceptAckMsg{g0_, vec}));
    // Buffered acks may already satisfy the quorum condition.
    if (status_ == Status::leader) check_commit(ctx, e);
}

void WbcastReplica::handle_accept_ack(Context& ctx, ProcessId from, MsgId id,
                                      const AcceptAckMsg& a) {
    if (status_ != Status::leader) return;  // line 18 precondition
    const auto eit = entries_.find(id);
    if (eit == entries_.end()) return;
    Entry& e = eit->second;
    if (e.phase == Phase::committed) return;
    e.last_activity = ctx.now();
    // Acks are buffered even if we have not yet received the matching
    // ACCEPTs ourselves (they may overtake them under jittered delays);
    // check_commit matches them against the proposals once complete.
    e.acks[a.ballots][a.from_group].insert(from);
    check_commit(ctx, e);
}

void WbcastReplica::check_commit(Context& ctx, Entry& e) {
    // Line 17: quorum of matching acks in each destination group, including
    // myself, for exactly the set of proposals we received, with our own
    // group's proposal made in our current ballot (line 18).
    if (status_ != Status::leader || e.phase == Phase::committed) return;
    if (e.accepts.size() != e.msg.dests.size()) return;
    BallotVector vec;
    vec.reserve(e.accepts.size());
    for (const auto& [g, bal_lts] : e.accepts) vec.emplace_back(g, bal_lts.first);
    const auto own = e.accepts.find(g0_);
    if (own == e.accepts.end() || own->second.first != cballot_) return;
    const auto ait = e.acks.find(vec);
    if (ait == e.acks.end()) return;
    auto& per_group = ait->second;
    if (per_group[g0_].count(pid_) == 0) return;
    const auto q = static_cast<std::size_t>(topo_.quorum_size());
    for (const GroupId g : e.msg.dests)
        if (per_group[g].size() < q) return;

    // Lines 19-20: commit.
    Timestamp gts;
    for (const auto& [g, bal_lts] : e.accepts)
        gts = std::max(gts, bal_lts.second);
    drop_pending(e);
    e.phase = Phase::committed;
    e.gts = gts;
    e.acks.clear();
    // The speculative advance at line 14 already ran here (we accepted our
    // own proposal), so no extra round trip is needed to persist the clock.
    if (cfg_.wbcast_speculative_clock) WBAM_ASSERT(clock_ >= gts.time);
    clock_ = std::max(clock_, gts.time);
    const bool unique = committed_by_gts_.emplace(gts, e.msg.id).second;
    WBAM_ASSERT_MSG(unique, "Invariant 4: global timestamps are unique");
    log_entry(e);
    stages_.record(obs::Stage::gts_known, e.msg.submit_ts, ctx.now());
    log::debug("wbcast p", pid_, " commits ", e.msg.id, " gts ", to_string(gts));
    try_deliver(ctx);
}

void WbcastReplica::try_deliver(Context& ctx) {
    // Line 21: deliver committed messages in gts order while no message in
    // PROPOSED/ACCEPTED could still commit below them.
    if (status_ != Status::leader) return;
    while (!committed_by_gts_.empty()) {
        const auto [gts, id] = *committed_by_gts_.begin();
        if (!pending_by_lts_.empty() && pending_by_lts_.begin()->first <= gts)
            break;
        committed_by_gts_.erase(committed_by_gts_.begin());
        Entry& e = entries_.at(id);
        e.deliver_sent = true;  // Delivered[m'] <- TRUE (line 22)
        // Line 23: replicate the outcome off the critical path. Our own
        // copy arrives via the zero-delay self channel.
        ctx.send_many(topo_.members(g0_),
                      codec::encode_envelope(
                          proto, type_of(MsgType::deliver), id,
                          DeliverMsg{e.msg, cballot_, e.lts, e.gts}));
    }
}

void WbcastReplica::handle_deliver(Context& ctx, const DeliverMsg& d) {
    // Line 25 preconditions; max_delivered_gts deduplicates re-deliveries
    // after leader changes.
    if (status_ == Status::recovering) return;
    if (cballot_ != d.ballot) return;
    if (max_delivered_gts_ >= d.gts) return;
    Entry& e = entries_[d.msg.id];
    drop_pending(e);
    if (e.msg.id == invalid_msg || !d.msg.payload.empty()) e.msg = d.msg;
    e.phase = Phase::committed;
    e.lts = d.lts;
    e.gts = d.gts;
    committed_by_gts_.erase(d.gts);
    clock_ = std::max(clock_, d.gts.time);  // line 29
    // The commit fact, durable together with the watermark deliver()
    // appends right after it.
    log_entry(e);
    deliver(ctx, d.gts, e.msg);  // line 31
}

void WbcastReplica::drop_pending(Entry& e) {
    if (e.phase == Phase::proposed || e.phase == Phase::accepted) {
        const auto it = pending_by_lts_.find(e.lts);
        if (it != pending_by_lts_.end() && it->second == e.msg.id)
            pending_by_lts_.erase(it);
    }
}

// --- leader change ------------------------------------------------------------

void WbcastReplica::on_trust_change(Context& ctx, ProcessId trusted) {
    if (trusted == pid_ && status_ != Status::leader) recover(ctx);
}

void WbcastReplica::recover(Context& ctx) {
    // Line 36: pick a ballot we lead, higher than any we have seen.
    const Ballot b{std::max(ballot_.round, cballot_.round) + 1, pid_};
    recovery_ = Recovery{.b = b};
    last_recover_attempt_ = ctx.now();
    log::info("wbcast p", pid_, " starts recovery at ", to_string(b));
    const Buffer wire = codec::encode_envelope(proto, type_of(MsgType::newleader),
                                              invalid_msg, NewLeaderMsg{b});
    for (const ProcessId p : topo_.members(g0_)) ctx.send(p, wire);
}

std::vector<EntryState> WbcastReplica::snapshot_entries() const {
    std::vector<EntryState> out;
    for (const auto& [id, e] : entries_) {
        if (e.phase != Phase::accepted && e.phase != Phase::committed) continue;
        out.push_back(EntryState{e.msg, static_cast<std::uint8_t>(e.phase),
                                 e.lts, e.gts, e.compacted});
    }
    return out;
}

void WbcastReplica::handle_newleader(Context& ctx, ProcessId from,
                                     const NewLeaderMsg& m) {
    if (m.ballot <= ballot_) return;  // line 38
    ballot_ = m.ballot;
    status_ = Status::recovering;  // stops normal processing (lines 11/18/25)
    if (recovery_ && recovery_->b < m.ballot) recovery_.reset();
    // The ack below promises this ballot; the promise must survive a
    // restart or we could ack a conflicting older candidate.
    log_status(/*reset=*/false);
    ctx.send(from, codec::encode_envelope(
                       proto, type_of(MsgType::newleader_ack), invalid_msg,
                       NewLeaderAckMsg{m.ballot, cballot_, clock_,
                                       snapshot_entries()}));
}

void WbcastReplica::install_entry(const EntryState& es) {
    Entry& e = entries_[es.msg.id];
    e.msg = es.msg;
    e.phase = static_cast<Phase>(es.phase);
    e.lts = es.lts;
    e.gts = es.gts;
    e.compacted = es.compacted;
    if (e.phase == Phase::accepted) {
        const bool fresh = pending_by_lts_.emplace(e.lts, es.msg.id).second;
        WBAM_ASSERT_MSG(fresh, "recovered local timestamps must be unique");
    } else if (e.phase == Phase::committed) {
        if (e.compacted) {
            // Already delivered by every group member; nothing to re-send.
            e.deliver_sent = true;
        } else {
            const bool unique = committed_by_gts_.emplace(e.gts, es.msg.id).second;
            WBAM_ASSERT_MSG(unique, "recovered global timestamps must be unique");
        }
    }
}

void WbcastReplica::handle_newleader_ack(Context& ctx, ProcessId from,
                                         const NewLeaderAckMsg& m) {
    if (!recovery_ || recovery_->b != m.ballot || recovery_->state_sent) return;
    if (status_ != Status::recovering || ballot_ != m.ballot) return;
    recovery_->acks[from] = m;
    if (recovery_->acks.size() < static_cast<std::size_t>(topo_.quorum_size()))
        return;

    // Lines 44-54: recompute the initial state from the quorum.
    entries_.clear();
    pending_by_lts_.clear();
    committed_by_gts_.clear();

    Ballot max_cb;
    for (const auto& [p, ack] : recovery_->acks)
        max_cb = std::max(max_cb, ack.cballot);

    // Rule 1 (lines 47-50): committed anywhere stays committed.
    for (const auto& [p, ack] : recovery_->acks) {
        for (const EntryState& es : ack.entries) {
            if (static_cast<Phase>(es.phase) != Phase::committed) continue;
            const auto it = entries_.find(es.msg.id);
            if (it == entries_.end()) {
                install_entry(es);
                continue;
            }
            // Invariant 3: all copies agree on the timestamps.
            WBAM_ASSERT_MSG(it->second.lts == es.lts &&
                                it->second.gts == es.gts,
                            "Invariant 3: committed copies disagree");
            if (es.compacted && !it->second.compacted) {
                // Someone observed full group delivery; adopt that view.
                committed_by_gts_.erase(it->second.gts);
                it->second.compacted = true;
                it->second.deliver_sent = true;
            }
            // compact(): a compacted entry is never re-dropped by GC, so it
            // must not alias the whole recovery-ack frame.
            if (it->second.msg.payload.empty() && !es.msg.payload.empty())
                it->second.msg.payload = es.msg.payload.compact();
        }
    }
    // Rule 2 (lines 51-53): accepted at a maximal-cballot member stays
    // accepted; acceptances from lower ballots are disregarded.
    for (const auto& [p, ack] : recovery_->acks) {
        if (ack.cballot != max_cb) continue;
        for (const EntryState& es : ack.entries) {
            if (static_cast<Phase>(es.phase) != Phase::accepted) continue;
            const auto it = entries_.find(es.msg.id);
            if (it == entries_.end()) {
                install_entry(es);
            } else if (it->second.phase == Phase::accepted) {
                WBAM_ASSERT_MSG(it->second.lts == es.lts,
                                "accepted copies in max cballot disagree");
            }
        }
    }
    // Line 54: the clock must not fall below any quorum-accepted global
    // timestamp (Invariant 2c); the max over the quorum guarantees that.
    for (const auto& [p, ack] : recovery_->acks)
        clock_ = std::max(clock_, ack.clock);
    cballot_ = recovery_->b;  // line 55
    recovery_->state_sent = true;
    rebuild_gc_queue();
    // The recompute replaced the whole entry table: checkpoint it (reset
    // marker, then every surviving entry) before NEW_STATE externalizes it.
    if (cfg_.wal) {
        log_status(/*reset=*/true);
        for (const auto& [id, e] : entries_) log_entry(e);
    }

    // Line 56: bring a quorum of followers in sync before resuming.
    const Buffer wire = codec::encode_envelope(
        proto, type_of(MsgType::new_state), invalid_msg,
        NewStateMsg{recovery_->b, clock_, snapshot_entries()});
    for (const ProcessId p : topo_.members(g0_))
        if (p != pid_) ctx.send(p, wire);
    if (topo_.quorum_size() == 1)
        handle_newstate_ack(ctx, pid_, NewStateAckMsg{recovery_->b});
}

void WbcastReplica::handle_new_state(Context& ctx, ProcessId from,
                                     const NewStateMsg& m) {
    // Line 58 requires ballot_ == m.ballot within a NEWLEADER round. A
    // resyncing restarted member may instead receive the CURRENT leader's
    // established state under a cballot it never promised (it was down for
    // that round); learning an established state is always safe, so only
    // states older than our own promise are rejected.
    if (status_ != Status::recovering || m.ballot < ballot_) return;
    status_ = Status::follower;
    awaiting_resync_ = false;
    sync_attempts_ = 0;
    ballot_ = m.ballot;
    cballot_ = m.ballot;
    clock_ = m.clock;
    entries_.clear();
    pending_by_lts_.clear();
    committed_by_gts_.clear();
    for (const EntryState& es : m.entries) install_entry(es);
    rebuild_gc_queue();
    recovery_.reset();
    // Same checkpoint as the new leader's: the table was rebuilt wholesale.
    if (cfg_.wal) {
        log_status(/*reset=*/true);
        for (const auto& [id, e] : entries_) log_entry(e);
    }
    ctx.send(from, codec::encode_envelope(proto, type_of(MsgType::newstate_ack),
                                          invalid_msg,
                                          NewStateAckMsg{m.ballot}));
}

void WbcastReplica::handle_newstate_ack(Context& ctx, ProcessId from,
                                        const NewStateAckMsg& m) {
    if (!recovery_ || recovery_->b != m.ballot || !recovery_->state_sent) return;
    if (status_ != Status::recovering || ballot_ != m.ballot) return;  // line 64
    recovery_->state_acks.insert(from);
    // Together with this process, the synced members must form a quorum.
    std::size_t synced = recovery_->state_acks.size();
    if (!recovery_->state_acks.count(pid_)) synced += 1;
    if (synced < static_cast<std::size_t>(topo_.quorum_size())) return;

    status_ = Status::leader;  // line 65
    recovery_.reset();
    awaiting_resync_ = false;  // leading supersedes any pending resync
    log::info("wbcast p", pid_, " is leader of ", to_string(cballot_));
    // Lines 66-68: re-deliver every unblocked committed message from the
    // beginning; followers (and our own upcall path) deduplicate via
    // max_delivered_gts.
    try_deliver(ctx);
    // Resume stuck accepted messages immediately (message recovery, §IV).
    for (const auto& [lts, id] : pending_by_lts_) {
        Entry& e = entries_.at(id);
        if (e.phase != Phase::accepted) continue;
        e.last_activity = ctx.now();
        const Buffer wire = encode_multicast_request(e.msg);
        for (const GroupId g : e.msg.dests) ctx.send(leader_guess(g), wire);
    }
}

// --- message recovery & garbage collection ---------------------------------

ProcessId WbcastReplica::leader_guess(GroupId g) const {
    if (g == g0_) return status_ == Status::leader ? pid_ : cballot_.leader();
    const auto it = remote_leader_hint_.find(g);
    return it != remote_leader_hint_.end() ? it->second
                                           : topo_.initial_leader(g);
}

void WbcastReplica::retry_stuck(Context& ctx) {
    if (status_ != Status::leader) return;
    // pending_by_lts_ indexes exactly the PROPOSED/ACCEPTED entries, so a
    // tick costs O(messages in flight), not O(entries retained).
    for (const auto& [lts, id] : pending_by_lts_) {
        Entry& e = entries_.at(id);
        if (ctx.now() - e.last_activity < cfg_.retry_interval) continue;
        // Lines 32-34: re-send MULTICAST(m) to the destination leaders;
        // groups that processed m re-send their protocol messages, groups
        // that never saw it start processing it.
        e.last_activity = ctx.now();
        e.retries += 1;
        const Buffer wire = encode_multicast_request(e.msg);
        for (const GroupId g : e.msg.dests) {
            if (e.retries <= 2) {
                ctx.send(leader_guess(g), wire);
            } else {
                // Leader guesses may be stale; fall back to broadcast.
                for (const ProcessId p : topo_.members(g)) ctx.send(p, wire);
            }
        }
    }
}

void WbcastReplica::handle_gc_status(ProcessId from, const GcStatusMsg& m) {
    delivered_floor_.note(from, m.max_delivered_gts);
    auto& prog = member_progress_[from];
    if (m.max_delivered_gts > prog.first) prog = {m.max_delivered_gts, 0};
}

GcStep WbcastReplica::compact_entry(MsgId id) {
    // The queue holds exactly the committed, uncompacted entries delivered
    // here, in gts order. A leader additionally waits for its own DELIVER
    // to have gone out (Delivered[] is set in gts order, so the first
    // entry still waiting ends the drain).
    Entry& e = entries_.at(id);
    if (e.phase != Phase::committed || e.compacted) return GcStep::stale;
    if (status_ == Status::leader && !e.deliver_sent) return GcStep::not_yet;
    // Delivered by every member of the group: drop the payload and vote
    // bookkeeping; the ordering facts (lts/gts/phase) stay, so recovery
    // and late retries remain correct. Dropping the slice also releases
    // this entry's share of the wire buffer it aliased. Nothing is logged
    // per entry: the wb_floor record of the raise that licensed this is
    // what replay compacts by.
    e.msg.payload = BufferSlice{};
    e.accepts.clear();
    e.acks.clear();
    e.compacted = true;
    return GcStep::compacted;
}

void WbcastReplica::gc_floor_raised(Timestamp floor) {
    // Durable before any message of this handler leaves, like every
    // record: replay must not resurrect a payload-bearing record as the
    // live entry once the floor proved everyone has it.
    if (cfg_.wal)
        cfg_.wal->append(wal::tag(wal::RecordType::wb_floor),
                         wal::encode_floor(floor));
}

void WbcastReplica::rebuild_gc_queue() {
    gc_queue_.rebuild(entries_, [&](const Entry& e) {
        return e.phase == Phase::committed && e.gts <= max_delivered_gts_;
    });
}

void WbcastReplica::gc_round(Context& ctx) {
    if (status_ == Status::leader) {
        repair_lagging(ctx);
        lead_gc_round(ctx);
    } else if (status_ == Status::follower && cballot_.leader() != pid_ &&
               (max_delivered_gts_ > bottom_ts || !entries_.empty())) {
        // A member with no entries and no deliveries pins the floor at ⊥
        // either way, so the report would be a no-op: skip it and keep
        // idle clusters free of GC traffic. A member holding entries
        // reports even at ⊥ — its stalled watermark is what triggers the
        // leader's DELIVER repair after a restart.
        report_delivered(ctx, cballot_.leader());
    }
}

void WbcastReplica::repair_lagging(Context& ctx) {
    // A member whose delivery watermark stalls below ours across two GC
    // rounds stopped receiving DELIVERs; re-send everything above its
    // watermark, in gts order (handle_deliver relies on in-order arrival
    // per leader). Receivers deduplicate by max_delivered_gts; healthy
    // members reset the stall counter with every advancing report, so
    // steady-state load never triggers this. (Crash-recovery restarts do
    // not rely on this path: they resync via SYNC_REQ before accepting
    // any DELIVER.)
    for (const ProcessId p : topo_.members(g0_)) {
        if (p == pid_) continue;
        auto& [known, stale] = member_progress_[p];
        if (known >= max_delivered_gts_) {
            stale = 0;
            continue;
        }
        if (++stale < 2) continue;
        resend_deliveries(ctx, p, known);
    }
}

void WbcastReplica::resend_deliveries(Context& ctx, ProcessId to,
                                      Timestamp above) {
    std::map<Timestamp, MsgId> resend;
    for (const auto& [id, e] : entries_) {
        if (e.phase != Phase::committed || e.compacted || !e.deliver_sent)
            continue;
        if (e.gts > above) resend.emplace(e.gts, id);
    }
    for (const auto& [gts, id] : resend) {
        const Entry& e = entries_.at(id);
        ctx.send(to, codec::encode_envelope(
                         proto, type_of(MsgType::deliver), id,
                         DeliverMsg{e.msg, cballot_, e.lts, e.gts}));
    }
}

void WbcastReplica::send_sync_req(Context& ctx) {
    last_sync_req_ = ctx.now();
    ++sync_attempts_;
    const Buffer wire =
        codec::encode_envelope(proto, type_of(MsgType::sync_req), invalid_msg,
                               SyncReqMsg{max_delivered_gts_});
    if (sync_attempts_ <= 2) {
        ctx.send(cballot_.leader(), wire);
    } else {
        // The durable cballot's leader may itself be dead or deposed; fall
        // back to asking the whole group — whoever leads now answers.
        for (const ProcessId p : topo_.members(g0_))
            if (p != pid_) ctx.send(p, wire);
    }
}

void WbcastReplica::handle_sync_req(Context& ctx, ProcessId from,
                                    const SyncReqMsg& m) {
    if (status_ != Status::leader || from == pid_) return;
    // Unicast the established state, then every committed DELIVER above
    // the member's durable watermark in gts order. FIFO channels make the
    // member install the state first and then apply a contiguous delivery
    // stream: fresh DELIVERs broadcast before this handler ran arrive at
    // the member while it is still recovering (dropped, and subsumed by
    // the backfill); ones broadcast after it arrive after the backfill.
    // Entries above the member's watermark are never compacted — the GC
    // floor is capped by the member's own durable report — so the backfill
    // always carries its payloads.
    ctx.send(from, codec::encode_envelope(
                       proto, type_of(MsgType::new_state), invalid_msg,
                       NewStateMsg{cballot_, clock_, snapshot_entries()}));
    resend_deliveries(ctx, from, m.watermark);
}

// --- durability --------------------------------------------------------------

void WbcastReplica::log_entry(const Entry& e) {
    if (!cfg_.wal) return;
    cfg_.wal->append(wal::tag(wal::RecordType::wb_entry),
                     encode_wb_entry_meta(clock_, e.msg, e.phase, e.lts, e.gts,
                                          e.compacted),
                     e.msg.payload);
}

void WbcastReplica::log_status(bool reset) {
    if (!cfg_.wal) return;
    cfg_.wal->append(wal::tag(wal::RecordType::wb_status),
                     encode_wb_status(cballot_, ballot_, clock_, reset));
}

void WbcastReplica::restore_entry(const EntryState& es) {
    Entry& e = entries_[es.msg.id];
    // A later record supersedes an earlier one for the same message
    // (proposed -> accepted -> committed -> compacted stub).
    drop_pending(e);
    if (e.phase == Phase::committed && !e.compacted)
        committed_by_gts_.erase(e.gts);
    e.msg = es.msg;
    e.phase = static_cast<Phase>(es.phase);
    e.lts = es.lts;
    e.gts = es.gts;
    e.compacted = es.compacted;
    if (e.compacted) e.deliver_sent = true;  // the floor proved full delivery
    if (e.phase == Phase::proposed || e.phase == Phase::accepted) {
        const bool fresh = pending_by_lts_.emplace(e.lts, es.msg.id).second;
        WBAM_ASSERT_MSG(fresh, "replayed local timestamps must be unique");
    } else if (e.phase == Phase::committed && !e.compacted) {
        const bool unique = committed_by_gts_.emplace(e.gts, es.msg.id).second;
        WBAM_ASSERT_MSG(unique, "replayed global timestamps must be unique");
    }
}

void WbcastReplica::replay_wal(Context&) {
    wal::Log& log = *cfg_.wal;
    // Pass 1: the delivery watermark, so re-installed commits at-or-below
    // it are recognized as already delivered.
    restore_watermark();
    // Pass 2: ballots, clock and entries, in log order. Appends are muted
    // while replaying (wal::Log::replay), so re-running the mutations does
    // not re-log them.
    Timestamp floor;
    log.replay([&](std::uint8_t type, const BufferSlice& body) {
        if (type == wal::tag(wal::RecordType::wb_floor)) {
            floor = std::max(floor, wal::decode_floor(body));
        } else if (type == wal::tag(wal::RecordType::wb_status)) {
            const WbStatusRecord st = decode_wb_status(body);
            cballot_ = st.cballot;
            ballot_ = st.ballot;
            clock_ = std::max(clock_, st.clock);
            if (st.reset) {
                entries_.clear();
                pending_by_lts_.clear();
                committed_by_gts_.clear();
            }
        } else if (type == wal::tag(wal::RecordType::wb_entry)) {
            const WbEntryRecord rec = decode_wb_entry(body);
            clock_ = std::max(clock_, rec.clock);
            restore_entry(rec.es);
        }
    });
    // Delivered commits are not pending DELIVERs; their announcement was
    // externalized (we only deliver on a received DELIVER), so they are
    // eligible for the delivered-floor compaction again.
    clock_ = std::max(clock_, max_delivered_gts_.time);
    for (auto it = committed_by_gts_.begin();
         it != committed_by_gts_.end() && it->first <= max_delivered_gts_;) {
        entries_.at(it->second).deliver_sent = true;
        it = committed_by_gts_.erase(it);
    }
    // The highest durable floor compacts every delivered entry at or below
    // it, so the restart comes back with the stubs it had (and more, if
    // it crashed owing compaction). Logs with per-entry stub records (no
    // wb_floor) replay their stubs through restore_entry instead.
    rebuild_gc_queue();
    restore_gc_floor(floor);
    // A promise above cballot means a leader change was in flight: stay
    // out of normal processing until its NEW_STATE (or a fresh NEWLEADER)
    // arrives. Otherwise resume leadership only when no competing ballot
    // can exist (elections off); with elections on, a restarted leader
    // rejoins as a member and re-leads through the NEWLEADER round.
    // A restarted member must NOT rejoin as a plain follower: DELIVERs it
    // missed while down are gone, and the first fresh DELIVER would jump
    // its watermark past the gap. It stays in recovering — dropping
    // DELIVERs — and asks the leader for a resync (send_sync_req): the
    // leader's NEW_STATE + in-order backfill restore a contiguous stream.
    if (ballot_ > cballot_) {
        status_ = Status::recovering;
    } else if (!cfg_.election_enabled && cballot_.leader() == pid_) {
        status_ = Status::leader;
    } else {
        status_ = Status::recovering;
        awaiting_resync_ = true;
    }
    log::info("wbcast p", pid_, " replayed WAL: ", log.recovered().size(),
              " records, ", entries_.size(), " entries, watermark ",
              to_string(max_delivered_gts_), ", resumes as ",
              status_ == Status::leader ? "leader"
              : awaiting_resync_        ? "resyncing member"
                                        : "recovering");
}

void WbcastReplica::dispatch_timer(Context& ctx, TimerId id) {
    if (elector_.handle_timer(ctx, id)) return;
    if (id != retry_timer_) return;
    retry_timer_ = ctx.set_timer(cfg_.retry_interval);
    // If we are the trusted leader candidate but recovery stalled (lost
    // messages, competing candidate), start a fresh ballot.
    if (cfg_.election_enabled && elector_.trusts_self(ctx) &&
        status_ != Status::leader &&
        ctx.now() - last_recover_attempt_ >= 2 * cfg_.retry_interval)
        recover(ctx);
    // An unanswered resync request (leader busy, dead or deposed) is
    // retried until some leader re-establishes us.
    if (awaiting_resync_ && status_ == Status::recovering &&
        ctx.now() - last_sync_req_ >= cfg_.retry_interval)
        send_sync_req(ctx);
    retry_stuck(ctx);
}

}  // namespace wbam::wbcast
