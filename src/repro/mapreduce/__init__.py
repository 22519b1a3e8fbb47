"""The Section 5.2 MapReduce substrate: HDFS, YARN, job runtime, jobs."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".config": ("HadoopConfig", "default_config"),
    ".costs": ("ALLOC_LEAD_S", "JVM_START_MI", "JobCosts"),
    ".hdfs": ("Hdfs", "HdfsBlock", "HdfsFile"),
    ".jobs": ("JOB_FACTORIES", "TABLE8_JOBS"),
    ".runtime": ("JobReport", "JobRunner", "JobSpec", "JobTimeline", "run_job"),
    ".scaling": ("DELL_SIZES", "EDISON_SIZES", "ScalingGrid",
                 "paper_mean_speedup", "paper_times", "run_scaling_grid"),
    ".yarn": ("ContainerGrant", "NodeManager", "YarnScheduler"),
})
