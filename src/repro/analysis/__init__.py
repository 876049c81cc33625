"""Reporting helpers: hardware trend data (Figure 2a) and table formatting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "power": (
        "PowerBudget",
        "PowerRatings",
        "prep_power_comparison",
        "server_power",
    ),
    "static_prep": (
        "AugmentationSpace",
        "paper_imagenet_example",
        "static_prep_storage",
    ),
    "tables": ("format_series", "format_table", "geometric_mean"),
    "tco": (
        "ComponentPrices",
        "host_amortization_ratio",
        "scaleout_bom",
        "trainbox_bom",
    ),
    "timeline": ("busy_fraction", "render_timeline"),
    "trends": ("asic_trend", "interconnect_trend", "trend_growth"),
})
