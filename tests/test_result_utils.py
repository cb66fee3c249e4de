"""The Figure 7 execution-breakdown buckets."""

from repro.cores.result import BREAKDOWN_BUCKETS, StallBreakdown


class TestBucketOrder:
    def test_figure7_bucket_order(self):
        assert BREAKDOWN_BUCKETS[0] == "busy"
        assert BREAKDOWN_BUCKETS[-1] == "dep_stall"
        assert len(BREAKDOWN_BUCKETS) == 9  # the nine Figure 7 categories

    def test_buckets_are_breakdown_fields(self):
        b = StallBreakdown()
        for bucket in BREAKDOWN_BUCKETS:
            assert hasattr(b, bucket)
