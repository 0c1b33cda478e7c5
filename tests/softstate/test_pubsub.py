"""Publish/subscribe: conditions, delivery, trees."""

import numpy as np
import pytest

from repro.netsim import FaultPlan
from repro.softstate import Condition, Region
from repro.softstate.records import NodeRecord
from repro.softstate.store import EventKind, MapEvent


def make_event(kind, region=Region(1, (0, 0)), node_id=9, load=0.0, capacity=1.0,
               vector=(1.0, 1.0)):
    record = NodeRecord(
        node_id=node_id,
        host=1,
        landmark_vector=vector,
        landmark_number=3,
        load=load,
        capacity=capacity,
    )
    return MapEvent(kind, region, record)


class TestConditions:
    def test_kind_filter(self):
        cond = Condition.node_joined()
        assert cond.matches(make_event(EventKind.NODE_JOINED))
        assert not cond.matches(make_event(EventKind.NODE_LEFT))

    def test_node_left_matches_expiry_too(self):
        cond = Condition.node_left()
        assert cond.matches(make_event(EventKind.NODE_LEFT))
        assert cond.matches(make_event(EventKind.RECORD_EXPIRED))

    def test_specific_node_filter(self):
        cond = Condition.node_left(node_id=9)
        assert cond.matches(make_event(EventKind.NODE_LEFT, node_id=9))
        assert not cond.matches(make_event(EventKind.NODE_LEFT, node_id=8))

    def test_load_threshold(self):
        cond = Condition.load_above(0.8)
        assert cond.matches(make_event(EventKind.LOAD_UPDATED, load=0.9))
        assert not cond.matches(make_event(EventKind.LOAD_UPDATED, load=0.7))

    def test_closer_candidate_distance_filter(self):
        cond = Condition.node_joined(vector=(0.0, 0.0), within_distance=1.0)
        assert cond.matches(make_event(EventKind.NODE_JOINED, vector=(0.5, 0.5)))
        assert not cond.matches(make_event(EventKind.NODE_JOINED, vector=(3.0, 4.0)))


class TestSubscriptions:
    def region_of(self, overlay, node_id):
        zone = overlay.ecan.can.nodes[node_id].zone
        return Region(1, zone.cell(1))

    def test_subscribe_and_notify_on_join(self, overlay):
        received = []
        subscriber = overlay.node_ids[0]
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
            overlay.pubsub.subscribe(
                subscriber,
                Region(1, cell),
                Condition.node_joined(),
                callback=lambda sub, event: received.append(event),
            )
        new_id = overlay.add_node()
        assert any(e.record.node_id == new_id for e in received)

    def test_notification_charged_as_tree_edges(self, overlay):
        stats = overlay.network.stats
        for node_id in overlay.node_ids[:10]:
            overlay.pubsub.subscribe(
                node_id, Region(1, (0, 0)), Condition.node_joined()
            )
        before = stats.snapshot()
        overlay.add_node()
        # any notification traffic appears under pubsub_notify
        delta = stats.delta(before)
        if overlay.pubsub.deliveries:
            assert delta.get("pubsub_notify", 0) >= 1

    def test_tree_shares_edges_across_subscribers(self, small_overlay):
        """Delivering to many subscribers costs fewer messages than the
        sum of individual unicast paths (that is the tree's point)."""
        overlay = small_overlay
        subscribers = overlay.node_ids[:30]
        # a joiner only publishes into the cells enclosing its own zone,
        # so watch every level-1 cell
        for node_id in subscribers:
            for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
                overlay.pubsub.subscribe(
                    node_id, Region(1, cell), Condition.node_joined()
                )
        overlay.pubsub.deliveries.clear()
        overlay.add_node()
        deliveries = [
            d for d in overlay.pubsub.deliveries if len(d.subscribers) >= 5
        ]
        assert deliveries, "expected a fan-out delivery"
        for delivery in deliveries:
            unicast_cost = 0
            rendezvous = overlay.pubsub._rendezvous_of(delivery.event)
            for sub in delivery.subscribers:
                node = overlay.ecan.can.nodes.get(sub)
                if node is None:
                    continue
                result = overlay.ecan.route(
                    rendezvous, node.zone.center(), category=None
                )
                unicast_cost += result.hops
            assert delivery.tree_edges <= unicast_cost

    def test_no_self_notification(self, overlay):
        received = []
        subscriber = overlay.node_ids[1]
        region = Region(1, (1, 1))
        overlay.pubsub.subscribe(
            subscriber,
            region,
            Condition.node_joined(),
            callback=lambda sub, event: received.append(event),
        )
        overlay.store.publish(subscriber)  # republishing self into the map
        assert all(e.record.node_id != subscriber for e in received)

    def test_unsubscribe_stops_notifications(self, overlay):
        received = []
        subscriber = overlay.node_ids[2]
        sub_id = overlay.pubsub.subscribe(
            subscriber,
            Region(1, (0, 1)),
            Condition.node_joined(),
            callback=lambda sub, event: received.append(event),
        )
        assert overlay.pubsub.unsubscribe(sub_id)
        before = len(received)
        for _ in range(3):
            overlay.add_node()
        assert len(received) == before

    def test_unsubscribe_unknown(self, overlay):
        assert not overlay.pubsub.unsubscribe(999999)

    def test_unsubscribe_all(self, overlay):
        subscriber = overlay.node_ids[3]
        for cell in ((0, 0), (1, 0)):
            overlay.pubsub.subscribe(
                subscriber, Region(1, cell), Condition.node_joined()
            )
        assert overlay.pubsub.unsubscribe_all(subscriber) == 2
        assert overlay.pubsub.subscriptions_of(subscriber) == []

    def test_load_alarm_delivery(self, overlay):
        received = []
        watcher = overlay.node_ids[0]
        target = overlay.node_ids[5]
        regions = list(overlay.store._published[target])
        overlay.pubsub.subscribe(
            watcher,
            regions[0],
            Condition.load_above(0.8, node_id=target),
            callback=lambda sub, event: received.append(event),
        )
        overlay.store.update_load(target, 0.5)  # below threshold
        assert received == []
        overlay.store.update_load(target, 0.95)
        assert len(received) == 1
        assert received[0].record.node_id == target

    def test_disabled_service_stays_silent(self, overlay):
        received = []
        overlay.pubsub.subscribe(
            overlay.node_ids[0],
            Region(1, (0, 0)),
            Condition.node_joined(),
            callback=lambda sub, event: received.append(event),
        )
        overlay.pubsub.enabled = False
        overlay.add_node()
        assert received == []

    def test_delivery_reports_acks(self, overlay):
        """On a healthy network every matching subscriber acks."""
        for node_id in overlay.node_ids[:8]:
            for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
                overlay.pubsub.subscribe(
                    node_id, Region(1, cell), Condition.node_joined()
                )
        overlay.pubsub.deliveries.clear()
        before = overlay.network.stats.snapshot()
        overlay.add_node()
        assert overlay.pubsub.deliveries
        delta = overlay.network.stats.delta(before)
        acked = sum(len(d.delivered) for d in overlay.pubsub.deliveries)
        assert delta.get("pubsub_ack", 0) == acked
        for report in overlay.pubsub.deliveries:
            assert report.complete
            assert sorted(report.delivered) == sorted(report.subscribers)


class TestLossyDelivery:
    def subscribe_all_cells(self, overlay, subscribers, received):
        for node_id in subscribers:
            for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
                overlay.pubsub.subscribe(
                    node_id,
                    Region(1, cell),
                    Condition.node_joined(),
                    callback=lambda sub, event: received.append(sub.subscriber),
                )

    def test_broken_path_recorded_as_failed_not_fabricated(self, overlay):
        received = []
        self.subscribe_all_cells(overlay, overlay.node_ids[:8], received)
        overlay.pubsub.deliveries.clear()
        overlay.arm_faults(FaultPlan(message_loss_rate=1.0), seed=0)
        try:
            overlay.add_node()
        finally:
            overlay.disarm_faults()
        reports = overlay.pubsub.deliveries
        assert reports
        failed = [s for d in reports for s in d.failed]
        assert failed, "total message loss must break some delivery"
        for report in reports:
            assert set(report.failed).isdisjoint(report.delivered)
            if report.failed:
                assert not report.complete
        # a failed path fires no callback: only delivered subscribers heard
        delivered_all = {s for r in reports for s in r.delivered}
        assert set(received) <= delivered_all
        assert overlay.pubsub.missed_count() == len(failed)
        assert overlay.network.stats.get("pubsub_notify_failed") >= 1

    def test_anti_entropy_recovers_missed_notifications(self, overlay):
        received = []
        self.subscribe_all_cells(overlay, overlay.node_ids[:8], received)
        overlay.pubsub.deliveries.clear()
        overlay.arm_faults(FaultPlan(message_loss_rate=1.0), seed=0)
        try:
            overlay.add_node()
        finally:
            overlay.disarm_faults()
        missed = overlay.pubsub.missed_count()
        assert missed > 0
        before = overlay.network.stats.snapshot()
        recovered = overlay.pubsub.resync_once()
        assert recovered == missed
        assert overlay.pubsub.missed_count() == 0
        assert overlay.pubsub.resynced == recovered
        # the pull was charged as resync routing traffic
        assert overlay.network.stats.delta(before).get("pubsub_resync", 0) >= 1
        assert len(received) >= recovered

    def test_departed_subscriber_backlog_dropped(self, overlay):
        received = []
        self.subscribe_all_cells(overlay, overlay.node_ids[:4], received)
        overlay.arm_faults(FaultPlan(message_loss_rate=1.0), seed=0)
        try:
            overlay.add_node()
        finally:
            overlay.disarm_faults()
        missed_subs = [s for s in overlay.pubsub._missed]
        assert missed_subs
        gone = missed_subs[0]
        overlay.ecan.leave(gone)  # crash-leave: subscription objects remain
        heard_before = received.count(gone)
        overlay.pubsub.resync_once()
        assert gone not in overlay.pubsub._missed
        # the dropped backlog never fired the departed subscriber's callback
        assert received.count(gone) == heard_before

    def test_departed_subscriber_not_notified(self, overlay):
        received = []
        subscriber = overlay.node_ids[4]
        overlay.pubsub.subscribe(
            subscriber,
            Region(1, (0, 0)),
            Condition.node_joined(),
            callback=lambda sub, event: received.append(event),
        )
        overlay.ecan.leave(subscriber)  # crash-leave, no unsubscribe
        overlay.add_node()
        assert received == []
