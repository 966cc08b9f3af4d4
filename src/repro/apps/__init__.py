"""Production application models (Sec. II-C).

* :mod:`~repro.apps.pangu` — the distributed file system: block servers
  fan writes out to chunk servers over full-mesh X-RDMA channels with
  3-way replication.
* :mod:`~repro.apps.essd` — cloud-disk front-ends driving block servers
  with 128 KB I/O (Figs. 8, 12a).
* :mod:`~repro.apps.xdb` — the distributed database front-end: small
  reads + redo-log writes per transaction (Fig. 12b).
"""

from repro.apps.erpc import ErpcClient, ErpcError, ErpcServer, ErpcService
from repro.apps.essd import EssdFrontend
from repro.apps.pangu import BlockServer, ChunkServer, PanguDeployment
from repro.apps.xdb import XdbFrontend

__all__ = ["BlockServer", "ChunkServer", "ErpcClient", "ErpcError",
           "ErpcServer", "ErpcService", "EssdFrontend", "PanguDeployment",
           "XdbFrontend"]
