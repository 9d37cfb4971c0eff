// The delivered-floor GC exchange shared by every replica protocol that
// garbage-collects by group-wide delivery progress (wbcast's compaction,
// and the ftskeen/fastcast application-log stubs): members report their
// delivery watermark to the group leader, the leader folds the last
// report per member and computes the floor as their MINIMUM over ALL
// members — so the floor can never pass any member's reported progress,
// which is what keeps compacted stubs below every real catch-up
// requester's watermark. The leader announces the floor every round (not
// only on change): a member that missed an announcement — partition,
// snapshot heal — learns it on the next tick. Idle members report
// nothing and an unreported member pins the floor at bottom, so clusters
// that never delivered stay GC-silent.
//
// The wire bodies live here once; each protocol tags them with its own
// Module::proto type values. So does the member-side CompactionQueue:
// the floor licenses compaction, and the queue hands it out a bounded
// number of entries at a time (ReplicaCore spreads it over deliveries).
#ifndef WBAM_MULTICAST_GC_FLOOR_HPP
#define WBAM_MULTICAST_GC_FLOOR_HPP

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "codec/fields.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace wbam {

// Member -> leader: this member's delivery watermark.
struct GcStatusMsg {
    Timestamp max_delivered_gts;

    void encode(codec::Writer& w) const {
        codec::write_field(w, max_delivered_gts);
    }
    static GcStatusMsg decode(codec::Reader& r) {
        GcStatusMsg m;
        codec::read_field(r, m.max_delivered_gts);
        return m;
    }
};

// Leader -> group: the group-wide delivered floor.
struct GcPruneMsg {
    Timestamp floor;

    void encode(codec::Writer& w) const { codec::write_field(w, floor); }
    static GcPruneMsg decode(codec::Reader& r) {
        GcPruneMsg m;
        codec::read_field(r, m.floor);
        return m;
    }
};

// Leader-side bookkeeping: the last delivery report per group member and
// the floor over them.
class DeliveredFloor {
public:
    DeliveredFloor() = default;
    explicit DeliveredFloor(std::vector<ProcessId> members)
        : members_(std::move(members)) {}

    // Folds a member's report (reports only ever advance).
    void note(ProcessId member, Timestamp delivered) {
        auto& known = reports_[member];
        known = std::max(known, delivered);
    }

    // Minimum over ALL members' last reports; bottom while any member has
    // yet to report (an unreported member pins retention — exactly the
    // conservative behaviour the stub/compaction safety argument needs).
    Timestamp floor() const {
        Timestamp f;
        bool first = true;
        for (const ProcessId p : members_) {
            const auto it = reports_.find(p);
            if (it == reports_.end()) return bottom_ts;
            f = first ? it->second : std::min(f, it->second);
            first = false;
        }
        return f;
    }

private:
    std::vector<ProcessId> members_;
    std::map<ProcessId, Timestamp> reports_;
};

// What a protocol row's compaction callback did with one queued message.
enum class GcStep : std::uint8_t {
    compacted,  // payload dropped: the entry is a stub now
    stale,      // nothing to compact (e.g. already a stub): forget it
    not_yet,    // not eligible yet: stop, and retry from here next round
};

// Member-side index of the compaction work that is due: every message
// delivered here whose entry still holds its payload, in delivery order
// (= gts order, since every member delivers in strictly increasing gts).
// A drain pops the prefix at-or-below the group floor, at most `budget`
// entries of it, so it costs O(entries popped) however many stubs the
// replica retains. The queue also summarises the stubs themselves: how
// many, and the highest gts among them (what a catch-up server needs to
// know it can serve).
//
// Rows push at their delivery point (ReplicaCore::deliver) and rebuild()
// once after any event that replaces the entry table wholesale (wbcast's
// leader recompute, NEW_STATE install and WAL replay).
class CompactionQueue {
public:
    // A delivery here. In-order pushes append; an out-of-order one (never
    // expected, tolerated) is inserted in place, and a repeat is ignored.
    void push(Timestamp gts, MsgId id) {
        const Item item{gts, id};
        if (items_.size() == head_ || items_.back() < item) {
            items_.push_back(item);
            return;
        }
        const auto pos = std::lower_bound(
            items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(),
            item);
        if (pos == items_.end() || *pos != item) items_.insert(pos, item);
    }

    // Offers queued messages with gts <= floor, in gts order and at most
    // `budget` of them, to `step(id)` and pops each unless the answer is
    // not_yet. Returns how many were compacted.
    template <class Step>
    std::size_t drain_upto(Timestamp floor, Step&& step,
                           std::size_t budget = SIZE_MAX) {
        std::size_t n = 0;
        for (; budget > 0 && head_ < items_.size() &&
               items_[head_].first <= floor;
             --budget) {
            const auto [gts, id] = items_[head_];
            const GcStep s = step(id);
            if (s == GcStep::not_yet) break;
            ++head_;
            if (s == GcStep::compacted) {
                ++n;
                max_compacted_ = std::max(max_compacted_, gts);
            }
        }
        // Reclaim the popped prefix once it dominates (amortized O(1)).
        if (head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (head_ >= 1024 && 2 * head_ >= items_.size()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        if (n > 0) {
            static obs::Counter& compacted_entries =
                obs::metrics().counter("gc/compacted_entries");
            compacted_ += n;
            compacted_entries.add(n);
        }
        return n;
    }

    // Re-derives the queue and the stub summary from an entry table
    // (MsgId -> entry with `gts` and `compacted`), after the table was
    // replaced wholesale. `delivered_here(entry)` selects the queued ones.
    template <class Table, class Pred>
    void rebuild(const Table& entries, Pred&& delivered_here) {
        items_.clear();
        head_ = 0;
        compacted_ = 0;
        max_compacted_ = bottom_ts;
        for (const auto& [id, e] : entries) {
            if (e.compacted) {
                ++compacted_;
                max_compacted_ = std::max(max_compacted_, e.gts);
            } else if (delivered_here(e)) {
                items_.emplace_back(e.gts, id);
            }
        }
        std::sort(items_.begin(), items_.end());
    }

    std::size_t size() const { return items_.size() - head_; }
    // Queued messages with gts <= floor: the compaction still owed.
    std::size_t count_upto(Timestamp floor) const {
        const auto head = items_.begin() + static_cast<std::ptrdiff_t>(head_);
        return static_cast<std::size_t>(
            std::partition_point(head, items_.end(),
                                 [&](const Item& it) {
                                     return it.first <= floor;
                                 }) -
            head);
    }
    // Stubs in the table, and the highest gts among them (⊥ if none).
    std::size_t compacted() const { return compacted_; }
    Timestamp max_compacted() const { return max_compacted_; }

private:
    using Item = std::pair<Timestamp, MsgId>;

    std::vector<Item> items_;  // [head_, end) is the queue
    std::size_t head_ = 0;
    std::size_t compacted_ = 0;
    Timestamp max_compacted_;
};

}  // namespace wbam

#endif  // WBAM_MULTICAST_GC_FLOOR_HPP
