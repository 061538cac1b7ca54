"""The end-to-end study pipeline and figure/table generation.

:mod:`repro.analysis.sources` adapts archives (CDS or MRT) into daily
detections; :mod:`repro.analysis.pipeline` streams them into
:class:`~repro.analysis.pipeline.StudyResults` —
:mod:`repro.analysis.parallel` fans that work out over a process pool
and merges per-shard states back, with identical results;
:mod:`repro.analysis.report` and :mod:`repro.analysis.figures` render
the paper's tables and figures; :mod:`repro.analysis.evaluation`
scores verdict-engine cause attribution against injected ground truth
(per-kind precision/recall, confusion matrix); :mod:`repro.analysis.vantage`
reproduces the Section III vantage-point comparison; and
:mod:`repro.analysis.baselines` implements the related-work baseline
(Huston's bare daily counter).
"""
