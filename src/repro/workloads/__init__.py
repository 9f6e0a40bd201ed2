"""Workloads: synthetic benign application traces and mixes.

Attack traces live in :mod:`repro.attacks`.
"""

from repro.workloads.synthetic import (
    AppProfile,
    APP_PROFILES,
    app_names,
    apps_by_category,
    generate_trace,
    profile_by_name,
)
from repro.workloads.mixes import MIX_TYPES, WorkloadMix, build_mix_traces, workload_mixes

__all__ = [
    "AppProfile",
    "APP_PROFILES",
    "app_names",
    "apps_by_category",
    "generate_trace",
    "profile_by_name",
    "MIX_TYPES",
    "WorkloadMix",
    "workload_mixes",
    "build_mix_traces",
]
