"""Covering, selection, and packing algorithms for families of metric balls.

Every public name is imported from its submodule on first use, so
``import ballcover`` loads no submodule and ``import ballcover.cli`` loads
only the ones the CLI reads.
"""

from importlib import import_module

# each submodule and the public names it defines
_EXPORTS = {
    "covering": """BallFamily EpsilonNet OverlapProfile QuasiRoundSet Verdict covering_number
        epsilon_net_greedy find_common_point is_alpha_configuration is_besicovitch_family
        is_k_configuration is_tau_satellite_configuration overlap_profile strict_net_bound""",
    "errors": "BallcoverError DomainError InputError InternalError UnsupportedFeatureError",
    "geometry": """DEFAULT_TOL Ball Point Space Tangent ball_volume distance exp_map
        injectivity_radius log_map unit_ball_volume""",
    "search": """CipResult ConstantsRow SearchConfig SearchResult cip_check constants_markdown
        constants_report construct_strict_hadwiger pack_unit_balls_radius5
        satellite_max_search search_max_besicovitch_family""",
    "selection": """DisjointPartition SubcoverResult besicovitch_cover_1d
        cip_subcover morse_partition partition_into_disjoint_families
        select_bounded_overlap_subcover""",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_SUBMODULE]

__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its submodule, or a submodule by its name.

    Nothing is bound here, so ``ballcover.<name>`` is always the submodule's
    current binding: one made while a caller had patched the submodule would
    outlive the patch.
    """
    if name in _SUBMODULE:
        return getattr(import_module("." + _SUBMODULE[name], __name__), name)
    if not name.startswith("__"):
        try:
            return import_module("." + name, __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
