"""The paper's reference figures, each recipe declared once. fig2 is the
closed-form coverage C1 of one packaged cell over a distance grid at several
node counts. fig3 and fig4 are the throughput and PDR of each simulated case
under its collision models, with N1/IC also projected onto several channels."""

FIG2_SCENARIO = "coverage_eu868"
FIG2_GRID_STEP_M = 10.0
FIG2_NODE_COUNTS = (250, 500, 2500)
# (packaged scenario, collision models): the models of a case resolve one calendar
SIM_CASES = (("sim_n1", ("BP", "IC")), ("sim_n2", ("BP", "IC", "IIC")))
PROJECTION_CHANNELS = 5
