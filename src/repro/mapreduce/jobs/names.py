"""The job catalogue's names, importable without the MapReduce runtime."""

#: Every job :data:`~repro.mapreduce.JOB_FACTORIES` builds, in its order.
JOB_NAMES = ("wordcount", "wordcount2", "logcount", "logcount2", "pi",
             "terasort", "teragen", "teravalidate")

#: The jobs Table 8 reports on.
TABLE8_JOBS = ("wordcount", "wordcount2", "logcount", "logcount2", "pi",
               "terasort")
