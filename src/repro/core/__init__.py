"""The VCGRA overlay: grid, PEs, tool flows, specialization and reconfiguration."""

from .accounting import GridResourceRow, grid_resource_details, grid_resource_table
from .flows import FlowComparison, PEFlowResult, compare_pe_flows, run_pe_flow
from .grid import VCGRAArchitecture, VirtualSwitchBlock
from .pe import PEOp, ProcessingElementSpec, build_pe_design, pe_port_summary
from .reconfiguration import (
    HWICAP,
    MICAP,
    ReconfigurationCostModel,
    ReconfigurationInterface,
)
from .settings import PESettings, VCGRASettings, VSBSettings
from .specialization import SpecializationOutcome, SpecializedConfigurationGenerator
from .toolflow import (
    ApplicationGraph,
    PEOperation,
    ToolflowReport,
    VCGRAToolflowError,
    run_vcgra_toolflow,
)

__all__ = [
    "GridResourceRow",
    "grid_resource_details",
    "grid_resource_table",
    "FlowComparison",
    "PEFlowResult",
    "compare_pe_flows",
    "run_pe_flow",
    "VCGRAArchitecture",
    "VirtualSwitchBlock",
    "PEOp",
    "ProcessingElementSpec",
    "build_pe_design",
    "pe_port_summary",
    "HWICAP",
    "MICAP",
    "ReconfigurationCostModel",
    "ReconfigurationInterface",
    "PESettings",
    "VCGRASettings",
    "VSBSettings",
    "SpecializationOutcome",
    "SpecializedConfigurationGenerator",
    "ApplicationGraph",
    "PEOperation",
    "ToolflowReport",
    "VCGRAToolflowError",
    "run_vcgra_toolflow",
]
