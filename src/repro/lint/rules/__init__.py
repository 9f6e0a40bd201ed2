"""The reprolint rule catalogue.

``default_rules()`` builds the seven project rules with their manifests from
:mod:`repro.lint.manifest`; tests construct individual rules with fixture
manifests instead.
"""

from __future__ import annotations

from typing import List

from repro.lint.framework import Rule
from repro.lint.rules.cache_key import CacheKeyCompletenessRule
from repro.lint.rules.canonical_json import CanonicalJsonRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.event_source import EventSourceRegistryRule
from repro.lint.rules.hotpath import HotPathAllocationRule
from repro.lint.rules.purity import MechanismQueryPurityRule
from repro.lint.rules.security import NoReflectionRule

__all__ = [
    "CacheKeyCompletenessRule",
    "CanonicalJsonRule",
    "DeterminismRule",
    "EventSourceRegistryRule",
    "HotPathAllocationRule",
    "MechanismQueryPurityRule",
    "NoReflectionRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """All seven project rules with their committed manifests."""
    return [
        NoReflectionRule(),
        HotPathAllocationRule(),
        DeterminismRule(),
        CanonicalJsonRule(),
        CacheKeyCompletenessRule(),
        EventSourceRegistryRule(),
        MechanismQueryPurityRule(),
    ]
