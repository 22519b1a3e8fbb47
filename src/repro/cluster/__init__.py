"""Cluster composition: server groups, topologies and testbed layouts."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".builders": ("dell_cluster", "edison_cluster", "hadoop_cluster",
                  "hybrid_web_cluster", "web_cluster"),
    ".cluster": ("Cluster",),
})
