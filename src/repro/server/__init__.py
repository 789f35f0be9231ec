"""Multi-tenant HTTP serving tier (see ``repro.server.http``).

Layering: :mod:`repro.server.models` (wire models + the single
error→HTTP mapping) → :mod:`repro.server.tenants` (quota gate,
metrics, the one read path into the snapshot-isolated
:class:`~repro.serve.service.QueryService`) → :mod:`repro.server.http`
(stdlib asyncio HTTP front end). ``repro serve --http HOST:PORT``
boots the whole stack from the CLI.
"""

from repro.server.http import HTTPGraphServer
from repro.server.models import (
    HTTP_STATUS_BY_CODE,
    BatchRequest,
    ExplainRequest,
    QueryRequest,
    WriteRequest,
    error_response,
)
from repro.server.tenants import (
    Tenant,
    TenantMetrics,
    TenantQuotas,
    TenantRegistry,
)

__all__ = [
    "BatchRequest",
    "ExplainRequest",
    "HTTPGraphServer",
    "HTTP_STATUS_BY_CODE",
    "QueryRequest",
    "Tenant",
    "TenantMetrics",
    "TenantQuotas",
    "TenantRegistry",
    "WriteRequest",
    "error_response",
]
