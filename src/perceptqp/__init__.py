"""Perceptually adaptive per-CU QP maps for raw YCbCr video.

Pipeline: raw planar frames -> CU grid and per-channel coding blocks ->
sub-block variance activity -> per-CU QP under a luma-only or
cross-channel rule. Plus PSNR and Bjontegaard metrics for comparing the
resulting RD curves.

Every public name loads its submodule on first use (PEP 562), so
importing one submodule loads only what it imports itself. Importing
perceptqp.cli and building its parser load only perceptqp.config, the
numpy-free vocabulary of formats and QP rules; a clip command loads
activity, qp and yuv, with numpy, when it runs. _SUBMODULE is the one
list of public names; the submodules keep no __all__, and yuv and qp
re-export the config names it lists as theirs. dir(perceptqp) lists
every public name, and any other name raises AttributeError.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "activity": "frame_activity",
        "metrics": "CurveOverlapError DegenerateCurveError RdCurve RdPoint bd_psnr bd_rate"
        " parse_rd_csv psnr",
        "partition": "ActivityRecord CbRect CuRect FrameActivity block_variance cb_rect cu_activity"
        " cu_grid cu_qp delta_qp normalized_activity round_half_away_from_zero sub_blocks",
        "qp": "CU_SIZES Mode QP_MAX QP_MIN QpConfig QpMap Rounding TMode grid_dims qp_map"
        " qp_map_from_activity scaling_factor",
        "yuv": "Channel ChromaFormat Frame Plane SampleRangeError TruncatedInputError"
        " VideoFormat YuvError frame_bytes plane_dims probe_frame_count read_frame write_frame",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str) -> object:
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
